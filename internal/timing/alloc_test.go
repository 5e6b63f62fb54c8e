package timing

// Allocation gates for the batched timing replay: the per-batch model
// work — bulk hit charging, per-event outcomes through the stream side
// and, for the L2 node, the secondary cache — must not allocate, or a
// CPI run over hundreds of millions of references spends its time in
// the collector.

import (
	"context"
	"testing"

	"streamsim/internal/core"
	"streamsim/internal/mem"
	"streamsim/internal/trace"
)

// tappedBatchSample returns one shared-front batch of a real trace
// with plenty of miss events, copied out of the replay.
func tappedBatchSample(t *testing.T) (int, []core.TapEvent) {
	t.Helper()
	st := workloadTraces(t)["mgrid"]
	sys, err := core.New(paperCfg(0))
	if err != nil {
		t.Fatal(err)
	}
	var n int
	var events []core.TapEvent
	err = core.ReplayFront(context.Background(), []*core.System{sys}, st, func(k int, evs []core.TapEvent) {
		if len(evs) > len(events) {
			n, events = k, append(events[:0], evs...)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) < 8 {
		t.Fatalf("busiest batch has %d events; want a batch with misses", len(events))
	}
	return n, events
}

//simlint:hotpath (*streamsim/internal/timing.Model).tappedBatch
func TestTappedBatchDoesNotAllocate(t *testing.T) {
	n, events := tappedBatchSample(t)
	marks := []trace.InstEvent{{Index: 3, N: 40}, {Index: n - 1, N: 7}}
	for _, set := range modelSets() {
		if set.name == "victim" {
			continue // never takes the shared front
		}
		for i, m := range set.build(t) {
			avg := testing.AllocsPerRun(200, func() {
				m.tappedBatch(events, n, 0, marks, 3)
			})
			if avg != 0 {
				t.Errorf("%s model %d: tappedBatch allocates %v times per batch; want 0", set.name, i, avg)
			}
		}
	}
}

//simlint:hotpath (*streamsim/internal/timing.Model).accessBatch
func TestAccessBatchDoesNotAllocate(t *testing.T) {
	accs := make([]mem.Access, trace.ReplayBatchLen)
	for i := range accs {
		accs[i] = mem.Access{Addr: mem.Addr(1<<24 + i*40), Kind: mem.Kind(i % 3)}
	}
	marks := []trace.InstEvent{{Index: 5, N: 11}}
	base := 0
	for _, set := range modelSets() {
		for i, m := range set.build(t) {
			avg := testing.AllocsPerRun(200, func() {
				m.accessBatch(accs, base, marks, 2)
				for k := range accs {
					accs[k].Addr += 1 << 16
				}
			})
			if avg != 0 {
				t.Errorf("%s model %d: accessBatch allocates %v times per batch; want 0", set.name, i, avg)
			}
		}
	}
}
