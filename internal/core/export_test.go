package core

import (
	"context"

	"streamsim/internal/trace"
)

// ReplayWindowedChunks runs the window-sharded engine with a forced
// chunk count (at most st.WindowCount()) and worker width, for tests
// that need a plan the trace's window count would not derive.
func ReplayWindowedChunks(ctx context.Context, systems []*System, st *trace.Store, shards, workers int) error {
	return replayWindowedChunks(ctx, systems, st, shards, workers)
}
