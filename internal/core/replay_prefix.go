// Prefix replay for the config-space optimizer: evaluate a whole
// generation of candidate systems on only some sample windows of a
// recorded trace. Successive halving (internal/search) scores cheap
// early rungs this way — one decode pass feeds every candidate, with
// the shared-front tap when the configurations allow it — and extends
// survivors onto progressively longer prefixes, resuming each replay at
// a window boundary via the store's O(1) seek index. With checkpointed
// candidates each rung replays only the windows the previous rung has
// not seen (DESIGN.md §12).
package core

import (
	"context"

	"streamsim/internal/trace"
)

// ReplayStoreMultiPrefixFrom replays the sample windows [fromWindow,
// toWindow) of a recorded trace through every system, decoding each
// batch exactly once and seeking the decoder to fromWindow's boundary
// in O(1) via the store's window index. toWindow <= 0 or beyond the
// window count means the end of the trace; fromWindow is clamped to
// [0, toWindow]. The replay is sequential and exact: each system
// observes precisely the access stream a solo replay over the same
// range would deliver, on any host, so prefix scores are
// machine-independent and identical no matter how candidates are
// grouped into generations. The decoder's ring predictors are part of
// the seek state, so the delivered stream is byte-for-byte the suffix
// a from-scratch replay would deliver: extending systems restored from
// a Checkpoint taken at fromWindow produces scores identical to
// replaying [0, toWindow) from scratch. On every exit each system is
// individually resumable (see replayWindows); on cancellation ctx.Err()
// is returned.
//
//simlint:deterministic
func ReplayStoreMultiPrefixFrom(ctx context.Context, systems []*System, st *trace.Store, fromWindow, toWindow int) error {
	if toWindow <= 0 || toWindow > st.WindowCount() {
		toWindow = st.WindowCount()
	}
	fromWindow = min(max(fromWindow, 0), toWindow)
	return replayWindows(ctx, systems, st, fromWindow, toWindow, fromWindow, nil)
}

// FullReplayResumable reports whether a full-trace
// ReplayStoreMultiWindowed replay of st over these systems is an exact
// sequential pass — the case when the windowed engine declines to
// shard (trace too small for a chunk plan, or hook-carrying systems).
// Only then may a final full-trace evaluation be resumed from a prefix
// checkpoint via ReplayStoreMultiPrefixFrom and still reproduce the
// windowed engine's numbers byte-for-byte; on shardable traces the
// windowed engine's warmup-bounded approximation is the score of
// record and callers must re-run it from scratch.
func FullReplayResumable(systems []*System, st *trace.Store) bool {
	return planShards(st.WindowCount()) < 2 || hooked(systems)
}
