// Cancellable replay of recorded traces through a System. This is the
// layer the simd job service cancels at: the per-reference hot path
// (Access/AccessBatch) stays free of any context machinery, and the
// batch loop here polls the context once per ReplayBatchLen references,
// so an in-flight run stops within one batch boundary.
//
// The multi-config entry points below decode each trace batch exactly
// once and fan the shared decoded slice out to N independent systems —
// the paper's whole evaluation is "one recorded reference stream, many
// memory-system configurations", so per-config decode is pure waste.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"streamsim/internal/stream"
	"streamsim/internal/trace"
)

// ReplayStore replays every access of a recorded trace through the
// system on the batched hot path, polling ctx between batches. It
// returns ctx.Err() if the replay was cancelled, in which case the
// system has consumed a prefix of the trace; statistics of a completed
// replay are byte-identical to calling Access in a loop.
//
// The decode is NextPacked: a System reads neither Access.PC nor
// Access.Size, so each reference travels as a single packed word from
// the varint stream to the cache probe — no mem.Access slice is
// materialized at all.
func ReplayStore(ctx context.Context, sys *System, st *trace.Store) error {
	done := ctx.Done()
	buf := make([]uint64, trace.ReplayBatchLen)
	it := st.Iter()
	for n := it.NextPacked(buf); n > 0; n = it.NextPacked(buf) {
		sys.AccessPacked(buf[:n])
		select {
		case <-done:
			return ctx.Err()
		default:
		}
	}
	return nil
}

// FanOut selects how ReplayStoreMultiMode distributes one decoded
// batch across the systems.
type FanOut int

const (
	// FanOutAuto picks the split from GOMAXPROCS and the trace shape:
	// a long trace on a multi-core host goes to FanOutWindowed (the
	// trace itself shards across the cores, warmup-approximate; see
	// ReplayStoreMultiWindowed), a short one to FanOutSharded when
	// there are systems to spread (GOMAXPROCS > 1 and more than one
	// system), else FanOutSequential.
	FanOutAuto FanOut = iota
	// FanOutSequential drives every system from one goroutine, batch by
	// batch: the 512-reference decoded slice stays hot in L1 while all N
	// systems consume it. This is the right mode when the caller already
	// saturates the host's cores (experiments run benchmarks in
	// parallel) or the host has one core.
	FanOutSequential
	// FanOutSharded splits the systems into contiguous shards, one per
	// goroutine (up to GOMAXPROCS), with a single producer decoding each
	// batch once into a refcounted buffer that every shard consumes.
	// Simulator states are fully independent, so shards never
	// synchronize except on batch hand-off.
	FanOutSharded
	// FanOutWindowed shards the trace itself: workers simulate disjoint
	// runs of sample windows against forked state and the per-chunk
	// statistics merge back (ReplayStoreMultiWindowed with default
	// options). Unlike the other modes it is warmup-approximate, not
	// byte-exact, and it falls back to FanOutSequential on traces too
	// short to split.
	FanOutWindowed
)

// lastFanOut records the width of the most recent multi-config
// fan-out, for the service /metrics gauge.
var lastFanOut atomic.Int64

// LastFanOutWidth reports how many systems the most recent
// ReplayStoreMulti call drove from one decode.
func LastFanOutWidth() int { return int(lastFanOut.Load()) }

// ReplayStoreMulti replays one recorded trace through every system,
// decoding each batch exactly once, with the fan-out mode chosen by
// FanOutAuto. Each system observes exactly the access stream
// ReplayStore would deliver, so per-system statistics are
// byte-identical to N independent replays. On cancellation every
// system has consumed a prefix of the trace and ctx.Err() is returned.
func ReplayStoreMulti(ctx context.Context, systems []*System, st *trace.Store) error {
	return ReplayStoreMultiMode(ctx, systems, st, FanOutAuto)
}

// ReplayStoreMultiMode is ReplayStoreMulti with an explicit fan-out
// mode.
func ReplayStoreMultiMode(ctx context.Context, systems []*System, st *trace.Store, mode FanOut) error {
	if mode == FanOutAuto {
		mode = FanOutSequential
		if runtime.GOMAXPROCS(0) > 1 {
			mode = FanOutSharded
			if planShards(st.WindowCount(), 0) > 1 {
				mode = FanOutWindowed
			}
		}
	}
	if mode == FanOutWindowed {
		lastFanOut.Store(int64(len(systems)))
		return ReplayStoreMultiWindowed(ctx, systems, st, ShardOptions{})
	}
	switch len(systems) {
	case 0:
		return nil
	case 1:
		lastFanOut.Store(1)
		return ReplayStore(ctx, systems[0], st)
	}
	lastFanOut.Store(int64(len(systems)))
	if mode == FanOutSequential {
		return replayMultiSequential(ctx, systems, st)
	}
	return replayMultiSharded(ctx, systems, st)
}

// SharedFront reports whether every system presents an identical L1
// front end — same geometry, same L1I and L1D configuration, no victim
// cache. L1 contents evolve identically across such systems no matter
// how the stream side is configured (every L1 miss fills the cache
// whether a stream or memory supplied the block), so one leader can
// simulate the front once and the rest need only the miss and
// write-back events.
func SharedFront(systems []*System) bool {
	lead := systems[0].cfg
	if lead.VictimEntries != 0 {
		return false
	}
	for _, sys := range systems[1:] {
		cfg := sys.cfg
		if cfg.Geometry != lead.Geometry || cfg.L1I != lead.L1I ||
			cfg.L1D != lead.L1D || cfg.VictimEntries != 0 {
			return false
		}
	}
	return true
}

// armTap enables the backend-event tap on a shared-front leader.
func (s *System) armTap() { s.tap = make([]TapEvent, 0, trace.ReplayBatchLen) }

// ReplayFront replays a recorded trace through the shared L1 front of
// systems exactly once and hands each batch's backend events to fn:
// n is the batch length and events (borrowed for the call) are the
// fills, write-backs and no-write-allocate stores its misses caused,
// in reference order, each stamped with its reference's index in the
// batch. The caller runs the events through the systems' stream sides
// (TapOutcome) or consumes them directly; every other reference of the
// batch hit in the L1 (or was skipped by set sampling).
//
// The front is a bare system — systems[0]'s L1s, starting from a copy
// of its L1 state, with no stream side — so the systems must share
// their front (SharedFront) and hold identical L1 state on entry. On
// every exit, cancelled or not, each system adopts the front's L1
// state and statistics, so it ends exactly as a replay of the same
// consumed prefix through its own L1 would have left it.
func ReplayFront(ctx context.Context, systems []*System, st *trace.Store, fn func(n int, events []TapEvent)) error {
	if len(systems) == 0 {
		return nil
	}
	if !SharedFront(systems) {
		return fmt.Errorf("core: ReplayFront needs systems that share one L1 front")
	}
	cfg := systems[0].cfg
	cfg.Streams = stream.Config{}
	cfg.PartitionedStreams = false
	cfg.UnitFilterEntries = 0
	cfg.Stride = NoStrideDetection
	cfg.OnMemoryTraffic = nil
	front, err := New(cfg)
	if err != nil {
		return err
	}
	front.l1i = systems[0].l1i.Clone()
	front.l1d = systems[0].l1d.Clone()
	front.armTap()
	defer func() {
		for _, sys := range systems {
			sys.adoptFront(front)
		}
	}()
	done := ctx.Done()
	buf := make([]uint64, trace.ReplayBatchLen)
	it := st.Iter()
	for n := it.NextPacked(buf); n > 0; n = it.NextPacked(buf) {
		front.tap = front.tap[:0]
		front.AccessPacked(buf[:n])
		fn(n, front.tap)
		select {
		case <-done:
			return ctx.Err()
		default:
		}
	}
	return nil
}

// replayMultiSequential decodes each batch once and walks the systems
// over the shared slice of packed words. AccessPacked never mutates
// its argument, so the decoded buffer is reused as-is by every system.
//
// When the systems share their L1 front end, only systems[0] simulates
// it: the leader taps the backend events each batch generates (L1 miss
// fills and write-backs) and the followers replay just those through
// their own stream-side state (System.applyTap), adopting the leader's
// L1 statistics at the end. The L1 probe — the dominant cost of a
// reference — then runs once per batch instead of once per system.
func replayMultiSequential(ctx context.Context, systems []*System, st *trace.Store) error {
	done := ctx.Done()
	buf := make([]uint64, trace.ReplayBatchLen)
	it := st.Iter()
	if SharedFront(systems) {
		leader, followers := systems[0], systems[1:]
		leader.armTap()
		defer func() {
			// Followers adopt the shared-front statistics on every
			// exit, so a cancelled replay still leaves each system
			// describing the same consumed prefix.
			for _, sys := range followers {
				sys.adoptFrontStats(leader)
			}
			leader.tap = nil
		}()
		for n := it.NextPacked(buf); n > 0; n = it.NextPacked(buf) {
			leader.tap = leader.tap[:0]
			leader.AccessPacked(buf[:n])
			for _, sys := range followers {
				sys.applyTap(leader.tap)
			}
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		return nil
	}
	for n := it.NextPacked(buf); n > 0; n = it.NextPacked(buf) {
		for _, sys := range systems {
			sys.AccessPacked(buf[:n])
		}
		select {
		case <-done:
			return ctx.Err()
		default:
		}
	}
	return nil
}

// shardBatch is one decoded batch in flight between the producer and
// the shard workers. refs counts the workers that have not consumed it
// yet; the last one returns the buffer to the free list.
type shardBatch struct {
	buf  []uint64
	n    int
	refs atomic.Int32
}

// replayMultiSharded runs one decoding producer and up to GOMAXPROCS
// shard workers, each owning a contiguous slice of the systems.
// Decoded batches are broadcast by pointer through per-worker buffered
// channels and recycled through a free list once every shard has
// consumed them, so the steady state allocates nothing.
func replayMultiSharded(ctx context.Context, systems []*System, st *trace.Store) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > len(systems) {
		workers = len(systems)
	}
	// Enough buffers that the producer can decode ahead of the slowest
	// shard without blocking the fast ones.
	nBufs := workers + 2
	free := make(chan *shardBatch, nBufs)
	for i := 0; i < nBufs; i++ {
		free <- &shardBatch{buf: make([]uint64, trace.ReplayBatchLen)}
	}
	// Channel capacity nBufs means a send can only block when the
	// receiving worker has stopped; the producer guards that case by
	// selecting on ctx.
	chans := make([]chan *shardBatch, workers)
	for i := range chans {
		chans[i] = make(chan *shardBatch, nBufs)
	}
	done := ctx.Done()
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		// Contiguous shard: systems[lo:hi), remainder spread over the
		// first shards.
		lo := w * len(systems) / workers
		hi := (w + 1) * len(systems) / workers
		wg.Add(1)
		go func(w int, shard []*System, ch chan *shardBatch) {
			defer wg.Done()
			for {
				select {
				case b, ok := <-ch:
					if !ok {
						return
					}
					// Abort before simulating another batch, not merely
					// when the queue runs dry: a cancelled replay must
					// stop within one batch even with batches in flight.
					if err := ctx.Err(); err != nil {
						errs[w] = err
						return
					}
					for _, sys := range shard {
						sys.AccessPacked(b.buf[:b.n])
					}
					if b.refs.Add(-1) == 0 {
						free <- b
					}
				case <-done:
					errs[w] = ctx.Err()
					return
				}
			}
		}(w, systems[lo:hi], chans[w])
	}
	it := st.Iter()
	var prodErr error
produce:
	for {
		var b *shardBatch
		select {
		case b = <-free:
		case <-done:
			prodErr = ctx.Err()
			break produce
		}
		b.n = it.NextPacked(b.buf)
		if b.n == 0 {
			break
		}
		b.refs.Store(int32(workers))
		for _, ch := range chans {
			select {
			case ch <- b:
			case <-done:
				prodErr = ctx.Err()
				break produce
			}
		}
	}
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
	if prodErr != nil {
		return prodErr
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
