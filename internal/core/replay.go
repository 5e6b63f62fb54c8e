// Cancellable replay of recorded traces through a System. This is the
// layer the simd job service cancels at: the per-reference hot path
// (Access/AccessBatch) stays free of any context machinery, and the
// batch loop here polls the context once per ReplayBatchLen references,
// so an in-flight run stops within one batch boundary.
//
// Every exact replay — one system or many, the whole trace or a window
// range, with or without a per-batch consumer — runs through one loop,
// replayWindows, which decodes each trace batch exactly once and fans
// the shared decoded slice out to every system. The paper's whole
// evaluation is "one recorded reference stream, many memory-system
// configurations", so per-config decode is pure waste.
package core

import (
	"context"
	"fmt"

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
	return replayWindows(ctx, []*System{sys}, st, 0, st.WindowCount(), 0, nil)
}

// ReplayStoreAll replays one recorded trace through every system,
// decoding each batch exactly once. Each system observes exactly the
// access stream ReplayStore would deliver, so per-system statistics
// are byte-identical to N independent replays on any host. On
// cancellation every system has consumed the same prefix of the trace
// and ctx.Err() is returned.
func ReplayStoreAll(ctx context.Context, systems []*System, st *trace.Store) error {
	return replayWindows(ctx, systems, st, 0, st.WindowCount(), 0, nil)
}

// SharedFront reports whether every system presents an identical L1
// front end — same geometry, same L1I and L1D configuration, no victim
// cache. L1 contents evolve identically across such systems no matter
// how the stream side is configured (every L1 miss fills the cache
// whether a stream or memory supplied the block), so one front can
// simulate the L1 once and the systems need only the miss and
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

// ReplayFront replays a recorded trace through the shared L1 front of
// systems exactly once and hands each batch's backend events to fn:
// n is the batch length and events (borrowed for the call) are the
// fills, write-backs and no-write-allocate stores its misses caused,
// in reference order, each stamped with its reference's index in the
// batch. The caller runs the events through the systems' stream sides
// (TapOutcome) or consumes them directly; every other reference of the
// batch hit in the L1 (or was skipped by set sampling).
//
// The systems must share their front (SharedFront) and hold identical
// L1 state on entry. On every exit, cancelled or not, each system
// takes over the front's L1 state and statistics, so it ends exactly
// as a replay of the same consumed prefix through its own L1 would
// have left it.
func ReplayFront(ctx context.Context, systems []*System, st *trace.Store, fn func(n int, events []TapEvent)) error {
	if len(systems) == 0 {
		return nil
	}
	if !SharedFront(systems) {
		return fmt.Errorf("core: ReplayFront needs systems that share one L1 front")
	}
	return replayWindows(ctx, systems, st, 0, st.WindowCount(), 0, fn)
}

// replayWindows is the decode-once fan-out loop. It seeks to window
// from in O(1), decodes the sample windows [from, to) of st one batch
// at a time and drives every system over each batch, polling ctx
// between batches. When count > from, every statistic is zeroed once
// the replay reaches window count, so only [count, to) is counted
// (the chunk engine's warmup).
//
// When the systems share their L1 front (SharedFront), or when onBatch
// consumes the front's events itself (ReplayFront), a bare copy of
// systems[0]'s front simulates the L1 once per batch and taps the
// backend events its misses cause; the systems then replay only those
// events through their own stream sides (applyTap), or onBatch
// receives them instead. On every exit each system takes over the
// front's L1 state and statistics (adoptFront), so a cancelled replay
// still leaves every system describing the same consumed prefix, and
// every system is individually checkpointable.
func replayWindows(ctx context.Context, systems []*System, st *trace.Store, from, to, count int, onBatch func(n int, events []TapEvent)) error {
	refs := st.PrefixLen(to) - st.PrefixLen(from)
	if len(systems) == 0 || refs <= 0 {
		return nil
	}
	var front *System
	if onBatch != nil || (len(systems) > 1 && SharedFront(systems)) {
		front = bareFront(systems[0])
		defer func() {
			for _, sys := range systems {
				sys.adoptFront(front)
			}
		}()
	}
	warm := st.PrefixLen(count) - st.PrefixLen(from)
	done := ctx.Done()
	buf := make([]uint64, trace.ReplayBatchLen)
	it := st.IterAtWindow(from)
	for refs > 0 {
		b := buf
		if refs < len(b) {
			b = b[:refs]
		}
		if warm > 0 && warm < len(b) {
			b = b[:warm]
		}
		n := it.NextPacked(b)
		if n == 0 {
			return nil
		}
		fanOut(systems, front, b[:n], onBatch)
		refs -= n
		if warm > 0 {
			if warm -= n; warm == 0 {
				for _, sys := range systems {
					sys.ResetStats()
				}
				if front != nil {
					front.ResetStats()
				}
			}
		}
		select {
		case <-done:
			return ctx.Err()
		default:
		}
	}
	return nil
}

// fanOut drives one decoded batch through every system: in full when
// there is no shared front, else through the front once with the
// systems (or onBatch) consuming its tapped events. The batch is
// borrowed for the duration of the call only.
//
//simlint:hotpath
//simlint:borrowed b
func fanOut(systems []*System, front *System, b []uint64, onBatch func(n int, events []TapEvent)) {
	if front == nil {
		for _, sys := range systems {
			sys.AccessPacked(b)
		}
		return
	}
	front.tap = front.tap[:0]
	front.AccessPacked(b)
	if onBatch != nil {
		onBatch(len(b), front.tap)
		return
	}
	for _, sys := range systems {
		sys.applyTap(front.tap)
	}
}

// bareFront returns a system made of a copy of s's L1 caches — state
// and statistics — with the backend-event tap armed and no stream side,
// victim cache or traffic hook: its misses count as plain demand
// fetches nobody reads, and the systems it feeds do their own traffic
// accounting from the tapped events.
func bareFront(s *System) *System {
	cfg := s.cfg
	cfg.OnMemoryTraffic = nil
	return &System{
		cfg:  cfg,
		geom: s.geom,
		l1i:  s.l1i.Clone(),
		l1d:  s.l1d.Clone(),
		tap:  make([]TapEvent, 0, trace.ReplayBatchLen),
	}
}
