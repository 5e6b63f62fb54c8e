// Prefix replay for the config-space optimizer: evaluate a whole
// generation of candidate systems on only the first few sample windows
// of a recorded trace. Successive halving (internal/search) scores
// cheap early rungs this way — one decode pass feeds every candidate,
// with the shared-front tap when the configurations allow it — and
// extends survivors onto progressively longer prefixes. The From
// variant resumes a previous prefix replay at a window boundary via the
// store's O(1) seek index, so with checkpointed candidates each rung
// replays only the windows the previous rung has not seen (DESIGN.md
// §12).
package core

import (
	"context"

	"streamsim/internal/trace"
)

// ReplayStoreMultiPrefix replays the first windows sample windows of a
// recorded trace through every system, decoding each batch exactly
// once. windows <= 0 or >= the trace's window count replays the whole
// trace. The replay is sequential and exact: each system observes
// precisely the access stream a solo ReplayStore over the same prefix
// would deliver, on any host, so prefix scores are machine-independent
// and identical no matter how candidates are grouped into generations.
// On cancellation every system has consumed a prefix of the prefix and
// ctx.Err() is returned.
//
//simlint:deterministic
func ReplayStoreMultiPrefix(ctx context.Context, systems []*System, st *trace.Store, windows int) error {
	return ReplayStoreMultiPrefixFrom(ctx, systems, st, 0, windows)
}

// ReplayStoreMultiPrefixFrom replays the sample windows [fromWindow,
// toWindow) of a recorded trace through every system, seeking the
// decoder to fromWindow's boundary in O(1) via the store's window
// index. toWindow <= 0 or beyond the window count means the end of the
// trace; fromWindow is clamped to [0, toWindow]. The decoder's ring
// predictors are part of the seek state, so the delivered stream is
// byte-for-byte the suffix a from-scratch prefix replay would deliver:
// extending systems restored from a Checkpoint taken at fromWindow
// produces scores identical to replaying [0, toWindow) from scratch.
// On every exit each returned system is individually resumable — in a
// shared-front fan-out the followers adopt the leader's L1 state
// before returning (see System.adoptFront).
//
//simlint:deterministic
func ReplayStoreMultiPrefixFrom(ctx context.Context, systems []*System, st *trace.Store, fromWindow, toWindow int) error {
	if len(systems) == 0 {
		return nil
	}
	if toWindow <= 0 || toWindow > st.WindowCount() {
		toWindow = st.WindowCount()
	}
	if fromWindow < 0 {
		fromWindow = 0
	}
	if fromWindow > toWindow {
		fromWindow = toWindow
	}
	refs := st.PrefixLen(toWindow) - st.PrefixLen(fromWindow)
	if refs == 0 {
		return nil
	}
	done := ctx.Done()
	buf := make([]uint64, trace.ReplayBatchLen)
	it := st.IterAtWindow(fromWindow)
	var leader *System
	var followers []*System
	if len(systems) > 1 && SharedFront(systems) {
		leader, followers = systems[0], systems[1:]
		leader.armTap()
		defer func() {
			// Followers adopt the shared front on every exit — state as
			// well as statistics — so a cancelled replay still leaves each
			// system describing the same consumed prefix, and any system
			// can be checkpointed and later resume as a leader (or solo)
			// with a correct L1 of its own.
			for _, sys := range followers {
				sys.adoptFront(leader)
			}
			leader.tap = nil
		}()
	}
	for refs > 0 {
		b := buf
		if refs < len(b) {
			b = b[:refs]
		}
		n := it.NextPacked(b)
		if n == 0 {
			return nil
		}
		if leader != nil {
			leader.tap = leader.tap[:0]
			leader.AccessPacked(b[:n])
			for _, sys := range followers {
				sys.applyTap(leader.tap)
			}
		} else {
			for _, sys := range systems {
				sys.AccessPacked(b[:n])
			}
		}
		refs -= n
		select {
		case <-done:
			return ctx.Err()
		default:
		}
	}
	return nil
}

// FullReplayResumable reports whether a zero-option full-trace replay
// of st over these systems is an exact sequential pass — the case when
// ReplayStoreMultiWindowed declines to shard (trace too small for a
// chunk plan, or hook-carrying systems). Only then may a final
// full-trace evaluation be resumed from a prefix checkpoint via
// ReplayStoreMultiPrefixFrom and still reproduce the windowed engine's
// numbers byte-for-byte; on shardable traces the windowed engine's
// warmup-bounded approximation is the score of record and callers must
// re-run it from scratch.
func FullReplayResumable(systems []*System, st *trace.Store) bool {
	return planShards(st.WindowCount(), 0) < 2 || hooked(systems)
}
