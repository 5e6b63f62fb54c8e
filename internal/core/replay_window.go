// Window-sharded intra-trace replay: one fan-out group simulated by
// several workers, each owning a contiguous run of the trace's sample
// windows. It is the one approximate replay in the simulator and has
// one caller, the optimizer's full-trace scores (internal/search);
// every other replay is exact (replay.go).
//
// The trace package's window seek index makes the decode side trivial
// — any worker can start decoding at any window boundary in O(1). The
// simulator side is where the approximation lives: a chunk that does
// not start at the beginning of the trace forks the caller's entry
// state (System.Fork, statistics zeroed), replays a few warmup windows
// to heat the forked caches and stream buffers, resets its counters,
// and only then counts its own windows. Outcome counters are additive
// over a partition of the reference stream, so the per-chunk deltas
// merge back exactly (System.Merge); the only divergence from a
// sequential replay is the residual cache and stream state at each
// chunk's first counted window, bounded by the warmup.
//
// The chunk plan is a function of the trace alone (its window count) —
// never of GOMAXPROCS — so results are machine-independent: worker
// width changes wall-clock time only.
package core

import (
	"context"
	"runtime"
	"sync"

	"streamsim/internal/trace"
)

// warmupWindows is the per-chunk warmup: enough references
// (4 x trace.WindowRefs) to refill the paper's 64 KB L1s and stream
// buffers from a forked entry state before any window is counted.
const warmupWindows = 4

// Chunk-plan shape: chunks carry at least minChunkWindows counted
// windows each (keeping the warmup overhead near warm/minChunkWindows)
// and the plan tops out at maxAutoChunks, far above any host's core
// count, so the split saturates wide machines without fragmenting the
// trace.
const (
	minChunkWindows = 32
	maxAutoChunks   = 32
)

// planShards returns the chunk count for a trace of K windows. The
// plan depends only on the trace, never on the host, so a sharded
// replay computes the same statistics everywhere.
func planShards(K int) int {
	t := K / minChunkWindows
	if t > maxAutoChunks {
		t = maxAutoChunks
	}
	if t < 1 {
		t = 1
	}
	return t
}

// hooked reports whether any system carries an observation hook.
// Hooks are closures shared with the caller; a forked system would
// invoke them from worker goroutines, so the engine refuses to shard
// and replays exactly instead.
func hooked(systems []*System) bool {
	for _, sys := range systems {
		if sys.cfg.OnMemoryTraffic != nil || sys.cfg.Streams.OnPrefetch != nil {
			return true
		}
	}
	return false
}

// ReplayStoreMultiWindowed replays one recorded trace through every
// system, sharding the trace itself across workers by sample windows
// (each worker drives all the systems through the decode-once fan-out
// loop). Its statistics are approximate: relative to the exact replay
// of ReplayStoreAll, stream hit rate, extra bandwidth and miss rate
// differ by each chunk's residual state error, bounded by
// warmupWindows of warmup (the measured worst case over every
// workload is pinned by TestReplayWindowedBoundedDivergence and
// DESIGN.md §10). The stream-length histograms (Streams.Lengths) are
// not bounded: a stream alive across a chunk edge is cut into two
// short ones, so the mix shifts toward short streams (at -scale 1,
// trfd's 1-5 / >20 buckets read 74.9 % / 25.0 % against 10.0 % /
// 90.0 % exact). Never report a stream-length mix from this engine.
// Traces too short for two chunks (under
// 2*minChunkWindows windows) and hook-carrying systems take the exact
// path instead.
//
// Chunk statistics merge deterministically: counters are additive over
// the window partition, the merge order cannot change a sum, and the
// chunk plan depends only on the trace — so a completed replay yields
// identical statistics at any worker count, including one. On
// cancellation the systems are left mid-merge and only the error is
// meaningful.
//
//simlint:deterministic
func ReplayStoreMultiWindowed(ctx context.Context, systems []*System, st *trace.Store) error {
	shards := planShards(st.WindowCount())
	if len(systems) == 0 || shards < 2 || hooked(systems) {
		return ReplayStoreAll(ctx, systems, st)
	}
	return replayWindowedChunks(ctx, systems, st, shards, runtime.GOMAXPROCS(0))
}

// replayWindowedChunks fans the chunk plan out over a worker pool.
// Every chunk forks the callers' pristine entry state (the protos,
// forked once up front so chunk 0 and chunk N see the same starting
// point), simulates its windows, and merges its counter deltas into
// the callers' systems under the merge lock as soon as it completes —
// freeing the fork's memory early. The final chunk's forks are kept
// aside: they hold the trace-end architectural state, which the
// callers adopt after the last merge so a later Results() describes a
// system that "finished" the trace.
func replayWindowedChunks(ctx context.Context, systems []*System, st *trace.Store, shards, workers int) error {
	K := st.WindowCount()
	protos := make([]*System, len(systems))
	for i, sys := range systems {
		protos[i] = sys.Fork()
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	if workers > shards {
		workers = shards
	}
	var (
		mu     sync.Mutex
		finals []*System
		errs   = make([]error, shards)
		wg     sync.WaitGroup
	)
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range idx {
				start, end := c*K/shards, (c+1)*K/shards
				css, err := runChunk(runCtx, protos, st, max(start-warmupWindows, 0), start, end)
				if err != nil {
					errs[c] = err
					cancel()
					continue
				}
				mu.Lock()
				for i, cs := range css {
					systems[i].Merge(cs)
				}
				if c == shards-1 {
					finals = css
				}
				mu.Unlock()
			}
		}()
	}
	for c := 0; c < shards; c++ {
		if runCtx.Err() != nil {
			break
		}
		idx <- c
	}
	close(idx)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if finals != nil {
		for i, sys := range systems {
			sys.adoptState(finals[i])
		}
	}
	return nil
}

// runChunk forks the prototype systems and replays windows
// [wstart, end) through the fan-out loop, which zeroes the forks'
// statistics when the warmup prefix [wstart, start) ends so only
// [start, end) is counted.
func runChunk(ctx context.Context, protos []*System, st *trace.Store, wstart, start, end int) ([]*System, error) {
	css := make([]*System, len(protos))
	for i, p := range protos {
		css[i] = p.Fork()
	}
	if err := replayWindows(ctx, css, st, wstart, end, start, nil); err != nil {
		return nil, err
	}
	return css, nil
}
