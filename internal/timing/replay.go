// Batched replay of a recorded trace through timing models. A Model
// charges per reference, but almost every reference of the paper's
// workloads hits in the L1 and costs exactly L1Hit: the interesting
// work is at the misses. When the models share one L1 front (the
// core.SharedFront condition), the replay simulates that front once
// per trace (core.ReplayFront) and each model does per-reference work
// only on the tapped miss events; the hits in between are charged in
// bulk. Models that cannot share a front replay reference by
// reference through Access. Both paths leave every model exactly as a
// per-reference Access loop over the same events would (DESIGN.md §8).
package timing

import (
	"context"

	"streamsim/internal/core"
	"streamsim/internal/mem"
	"streamsim/internal/trace"
)

// ReplayStore replays a recorded trace through every model from one
// decode pass. Retired instructions come from two sources: the
// store's own positioned counts (trace.Store.InstEvents) retire
// exactly where they were recorded, before the reference at their
// index, and extra is spread evenly — extra/Len instructions after
// every reference and the remainder after the last. Each model's
// Stats and Results are identical to driving it with Access and
// AddInstructions in that order. A cancelled replay returns ctx.Err()
// with every model having consumed the same prefix.
//
//simlint:deterministic
func ReplayStore(ctx context.Context, models []*Model, st *trace.Store, extra uint64) error {
	if len(models) == 0 {
		return nil
	}
	r := &replay{models: models, marks: st.InstEvents()}
	tail := extra
	if n := uint64(st.Len()); n > 0 {
		r.perRef = extra / n
		tail = extra - r.perRef*n
	}
	systems := make([]*core.System, len(models))
	for i, m := range models {
		systems[i] = m.sys
	}
	var err error
	if core.SharedFront(systems) {
		err = core.ReplayFront(ctx, systems, st, r.tapped)
	} else {
		err = r.scalar(ctx, st)
	}
	if err != nil {
		return err
	}
	// Counts recorded after the last reference, and the remainder of
	// the even spread.
	for _, ev := range r.marks {
		tail += ev.N
	}
	for _, m := range models {
		m.AddInstructions(tail)
	}
	return nil
}

// replay is the state of one ReplayStore pass shared by its models.
type replay struct {
	models []*Model
	perRef uint64
	// marks are the positioned instruction counts not yet retired.
	marks []trace.InstEvent
	// base is the trace index of the current batch's first reference.
	base int
}

// batchMarks takes the positioned counts that fall inside a batch of
// n references off the pending list.
func (r *replay) batchMarks(n int) []trace.InstEvent {
	k := 0
	for k < len(r.marks) && r.marks[k].Index < r.base+n {
		k++
	}
	bm := r.marks[:k]
	r.marks = r.marks[k:]
	return bm
}

// tapped is the core.ReplayFront callback: one batch of n references
// whose L1 misses caused events.
func (r *replay) tapped(n int, events []core.TapEvent) {
	bm := r.batchMarks(n)
	for _, m := range r.models {
		m.tappedBatch(events, n, r.base, bm, r.perRef)
	}
	r.base += n
}

// scalar is the path for models that cannot share a front: every
// model simulates its own L1, reference by reference.
func (r *replay) scalar(ctx context.Context, st *trace.Store) error {
	done := ctx.Done()
	buf := make([]mem.Access, trace.ReplayBatchLen)
	it := st.Iter()
	for n := it.NextNoPC(buf); n > 0; n = it.NextNoPC(buf) {
		bm := r.batchMarks(n)
		for _, m := range r.models {
			m.accessBatch(buf[:n], r.base, bm, r.perRef)
		}
		r.base += n
		select {
		case <-done:
			return ctx.Err()
		default:
		}
	}
	return nil
}

// accessBatch runs one decoded batch through Access, retiring the
// positioned counts marks (trace indices from base) before their
// references and perRef instructions after every reference.
//
//simlint:hotpath
//simlint:borrowed accs marks
func (m *Model) accessBatch(accs []mem.Access, base int, marks []trace.InstEvent, perRef uint64) {
	for i := range accs {
		for len(marks) > 0 && marks[0].Index <= base+i {
			m.AddInstructions(marks[0].N)
			marks = marks[1:]
		}
		m.Access(accs[i])
		m.AddInstructions(perRef)
	}
}

// tappedBatch charges one batch of n references from its tapped
// events. The events of one reference (a write-back, then its fill or
// store) run through the model's stream side together; every
// reference without events hit in the L1 and is charged in bulk by
// retireHits, with the positioned counts marks (trace indices from
// base) and perRef instructions per reference retired in the same
// order Access and AddInstructions would have.
//
//simlint:hotpath
//simlint:borrowed events marks
func (m *Model) tappedBatch(events []core.TapEvent, n, base int, marks []trace.InstEvent, perRef uint64) {
	next := 0 // batch index of the first reference not yet charged
	for j := 0; j < len(events); {
		ref := int(events[j].Ref)
		k := j + 1
		for k < len(events) && int(events[k].Ref) == ref {
			k++
		}
		var insts uint64
		for len(marks) > 0 && marks[0].Index <= base+ref {
			insts += marks[0].N
			marks = marks[1:]
		}
		m.retireHits(uint64(ref-next), perRef, insts)
		// A reference's last event is its fill or store, which carries
		// the address and kind.
		last := &events[k-1]
		m.charge(m.sys.TapOutcome(events[j:k]), last.Kind&core.TapWrite != 0, last.Addr)
		m.AddInstructions(perRef)
		next, j = ref+1, k
	}
	var insts uint64
	for _, ev := range marks {
		insts += ev.N
	}
	m.retireHits(uint64(n-next), perRef, insts)
}

// retireHits charges hits L1 hits, each followed by perRef
// instructions, plus insts more instructions positioned among them.
// It is exact without touching the bus: a hit's only bus effect is
// busFreeAt = max(busFreeAt, now), and because now never decreases
// the next access that reads busFreeAt (charge) applies the same max
// itself.
//
//simlint:hotpath
func (m *Model) retireHits(hits, perRef, insts uint64) {
	stall := hits * m.lat.L1Hit
	insts += hits * perRef
	m.now += stall + insts
	m.stats.StallCycles += stall
	m.stats.InstructionCycles += insts
	m.stats.Instructions += insts
	m.sys.AddInstructions(insts)
}
