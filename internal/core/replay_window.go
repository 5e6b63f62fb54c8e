// Window-sharded intra-trace replay: one configuration (or one
// fan-out group) simulated by several workers, each owning a
// contiguous run of the trace's sample windows.
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
// sequential replay is the residual cache state at each chunk's first
// counted window, bounded by the warmup. ShardExact trades the
// parallelism away to prove the decode half: it replays every window
// serially from a fresh seek and must be byte-identical to a plain
// sequential replay.
//
// The chunk plan is a function of the trace alone (window count and
// the requested shard count) — never of GOMAXPROCS — so results are
// machine-independent: worker width changes wall-clock time only.
package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"streamsim/internal/trace"
)

// ShardMode selects how the window-sharded engine trades exactness for
// parallelism.
type ShardMode int

const (
	// ShardAuto runs warmup-approximate parallel chunks when the trace
	// has enough windows, falling back to an exact sequential replay
	// otherwise (small traces, forced single shard, or traffic hooks
	// that cannot be shared across goroutines).
	ShardAuto ShardMode = iota
	// ShardExact replays window by window from fresh index seeks, on
	// one goroutine. Results are byte-identical to a sequential replay;
	// it exists as the oracle that proves every index checkpoint.
	ShardExact
)

// ShardOptions tunes the window-sharded engine. The zero value picks
// everything automatically.
type ShardOptions struct {
	// Mode selects approximate-parallel (ShardAuto) or the exact
	// serial oracle (ShardExact).
	Mode ShardMode
	// Shards forces the chunk count: 0 derives it from the trace's
	// window count, 1 disables sharding (exact sequential replay).
	// The chunk plan never depends on the host's core count.
	Shards int
	// Workers caps the goroutines consuming chunks; 0 means
	// GOMAXPROCS. Affects wall-clock time only, never results.
	Workers int
	// WarmupWindows is how many windows each chunk replays to heat its
	// forked state before counting: 0 means DefaultWarmupWindows,
	// negative means none.
	WarmupWindows int
}

// DefaultWarmupWindows is the per-chunk warmup: enough references
// (4 x trace.WindowRefs) to refill the paper's 64 KB L1s and stream
// buffers from a forked entry state before any window is counted.
const DefaultWarmupWindows = 4

// Auto chunk-plan shape: chunks carry at least minChunkWindows counted
// windows each (keeping the warmup overhead near warm/minChunkWindows)
// and the plan tops out at maxAutoChunks, far above any host's core
// count, so the split saturates wide machines without fragmenting the
// trace.
const (
	minChunkWindows = 32
	maxAutoChunks   = 32
)

// lastWindowShards records the chunk count of the most recent windowed
// replay, for the service /metrics gauge (1 when the engine fell back
// to an exact sequential pass).
var lastWindowShards atomic.Int64

// LastWindowShards reports the window-shard width of the most recent
// windowed replay.
func LastWindowShards() int { return int(lastWindowShards.Load()) }

// planShards returns the chunk count for a trace of K windows. The
// plan depends only on the trace and the requested count, never on the
// host, so a sharded replay computes the same statistics everywhere.
func planShards(K, requested int) int {
	t := requested
	if t == 0 {
		t = K / minChunkWindows
		if t > maxAutoChunks {
			t = maxAutoChunks
		}
	}
	if t > K {
		t = K
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

// ReplayStoreWindowed replays a recorded trace through one system with
// window sharding; see ReplayStoreMultiWindowed.
func ReplayStoreWindowed(ctx context.Context, sys *System, st *trace.Store, opt ShardOptions) error {
	one := [1]*System{sys}
	return ReplayStoreMultiWindowed(ctx, one[:], st, opt)
}

// ReplayStoreMultiWindowed replays one recorded trace through every
// system, sharding the trace itself across workers by sample windows
// (each worker still drives all the systems, decoding every batch
// once, with the shared-front tap when the configurations allow it).
// Chunk statistics merge deterministically: counters are additive over
// the window partition, the merge order cannot change a sum, and the
// chunk plan depends only on the trace — so a completed replay yields
// identical statistics at any worker count, including one. Relative to
// an exact sequential replay the statistics differ only by each
// chunk's residual state error, bounded by the warmup windows;
// ShardExact, small traces, Shards: 1 and hook-carrying systems all
// take the exact path instead. On cancellation the systems are left
// mid-merge and only the error is meaningful.
//
//simlint:deterministic
func ReplayStoreMultiWindowed(ctx context.Context, systems []*System, st *trace.Store, opt ShardOptions) error {
	if len(systems) == 0 {
		return nil
	}
	if opt.Mode == ShardExact {
		lastWindowShards.Store(1)
		return replayWindowedExact(ctx, systems, st)
	}
	shards := planShards(st.WindowCount(), opt.Shards)
	if shards < 2 || hooked(systems) {
		lastWindowShards.Store(1)
		return ReplayStoreMultiMode(ctx, systems, st, FanOutSequential)
	}
	lastWindowShards.Store(int64(shards))
	warm := opt.WarmupWindows
	switch {
	case warm == 0:
		warm = DefaultWarmupWindows
	case warm < 0:
		warm = 0
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return replayWindowedChunks(ctx, systems, st, shards, warm, workers)
}

// replayWindowedExact is the serial oracle: every window decoded from
// a fresh index seek into the same batch loop the sequential engine
// uses. Identical results prove the index checkpoints, the O(1) seeks
// and the window-bounded decode all agree with a straight pass.
func replayWindowedExact(ctx context.Context, systems []*System, st *trace.Store) error {
	done := ctx.Done()
	buf := make([]uint64, trace.ReplayBatchLen)
	var leader *System
	var followers []*System
	if len(systems) > 1 && SharedFront(systems) {
		leader, followers = systems[0], systems[1:]
		leader.armTap()
		defer func() {
			for _, sys := range followers {
				sys.adoptFrontStats(leader)
			}
			leader.tap = nil
		}()
	}
	for w, count := 0, st.WindowCount(); w < count; w++ {
		it := st.IterAtWindow(w)
		refs := st.WindowLen(w)
		if leader != nil {
			replayWindowRunTap(leader, followers, &it, refs, buf)
		} else {
			replayWindowRun(systems, &it, refs, buf)
		}
		select {
		case <-done:
			return ctx.Err()
		default:
		}
	}
	return nil
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
func replayWindowedChunks(ctx context.Context, systems []*System, st *trace.Store, shards, warm, workers int) error {
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
			buf := make([]uint64, trace.ReplayBatchLen)
			for c := range idx {
				start, end := c*K/shards, (c+1)*K/shards
				wstart := start - warm
				if wstart < 0 {
					wstart = 0
				}
				css, err := runChunk(runCtx, protos, st, wstart, start, end, buf)
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
// [wstart, end), resetting the forks' statistics when the warmup
// prefix [wstart, start) ends so only [start, end) is counted. The
// iterator seeks once and decodes straight through the chunk; ctx is
// polled once per window.
func runChunk(ctx context.Context, protos []*System, st *trace.Store, wstart, start, end int, buf []uint64) ([]*System, error) {
	css := make([]*System, len(protos))
	for i, p := range protos {
		css[i] = p.Fork()
	}
	var leader *System
	var followers []*System
	if len(css) > 1 && SharedFront(css) {
		leader, followers = css[0], css[1:]
		leader.armTap()
		defer func() {
			for _, sys := range followers {
				sys.adoptFrontStats(leader)
			}
			leader.tap = nil
		}()
	}
	done := ctx.Done()
	it := st.IterAtWindow(wstart)
	for w := wstart; w < end; w++ {
		if w == start && w > wstart {
			for _, cs := range css {
				cs.ResetStats()
			}
		}
		select {
		case <-done:
			return nil, ctx.Err()
		default:
		}
		refs := st.WindowLen(w)
		if leader != nil {
			replayWindowRunTap(leader, followers, &it, refs, buf)
		} else {
			replayWindowRun(css, &it, refs, buf)
		}
	}
	return css, nil
}

// replayWindowRun decodes exactly refs references from it and drives
// every system over each shared batch. The decoded batch is borrowed
// by the systems for the duration of the call only.
//
//simlint:hotpath
//simlint:borrowed buf
func replayWindowRun(systems []*System, it *trace.StoreIter, refs int, buf []uint64) {
	for refs > 0 {
		b := buf
		if refs < len(b) {
			b = b[:refs]
		}
		n := it.NextPacked(b)
		if n == 0 {
			return
		}
		for _, sys := range systems {
			sys.AccessPacked(b[:n])
		}
		refs -= n
	}
}

// replayWindowRunTap is replayWindowRun for a shared-front group: the
// leader simulates the L1 once per batch and the followers replay only
// its tapped backend events.
//
//simlint:hotpath
//simlint:borrowed buf
func replayWindowRunTap(leader *System, followers []*System, it *trace.StoreIter, refs int, buf []uint64) {
	for refs > 0 {
		b := buf
		if refs < len(b) {
			b = b[:refs]
		}
		n := it.NextPacked(b)
		if n == 0 {
			return
		}
		leader.tap = leader.tap[:0]
		leader.AccessPacked(b[:n])
		for _, sys := range followers {
			sys.applyTap(leader.tap)
		}
		refs -= n
	}
}
