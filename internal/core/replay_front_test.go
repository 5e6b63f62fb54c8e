package core_test

import (
	"context"
	"reflect"
	"testing"

	"streamsim/internal/cache"
	"streamsim/internal/core"
	"streamsim/internal/mem"
	"streamsim/internal/trace"
)

// TestReplayFrontOutcomesMatchAccessOutcome checks the shared-front tap
// reference by reference: replaying a trace through ReplayFront and
// running each reference's events through TapOutcome must report the
// outcome AccessOutcome gives on a system that simulates its own L1
// (a reference without events hit), and leave every system with the
// Results of that solo run. A no-write-allocate L1D exercises the
// store-through events.
func TestReplayFrontOutcomesMatchAccessOutcome(t *testing.T) {
	cfgs := multiConfigs()
	nwa := cfgs[3]
	nwa.L1D.Alloc = cache.NoWriteAllocate
	groups := [][]core.Config{cfgs, {nwa, nwa}}
	kinds := make([][2]int, len(groups)) // write-backs, store-throughs
	for _, name := range []string{"mgrid", "cgm", "spec77"} {
		st := recordTrace(t, name, 0.01)
		for g, group := range groups {
			systems := make([]*core.System, len(group))
			solo := make([]*core.System, len(group))
			for i, cfg := range group {
				systems[i] = mustNew(t, cfg)
				solo[i] = mustNew(t, cfg)
			}
			accs := make([]mem.Access, trace.ReplayBatchLen)
			it := st.Iter()
			var mismatches int
			err := core.ReplayFront(context.Background(), systems, st, func(n int, events []core.TapEvent) {
				for _, ev := range events {
					if ev.Kind&core.TapWriteBack != 0 {
						kinds[g][0]++
					}
					if ev.Kind&core.TapStoreThrough != 0 {
						kinds[g][1]++
					}
				}
				if got := it.NextNoPC(accs); got != n {
					t.Fatalf("%s: front batch of %d, decode gave %d", name, n, got)
				}
				for k, sys := range systems {
					evs := events
					for ref := 0; ref < n; ref++ {
						want := solo[k].AccessOutcome(accs[ref])
						got := core.Outcome{Level: core.LevelL1}
						end := 0
						for end < len(evs) && int(evs[end].Ref) == ref {
							end++
						}
						if end > 0 {
							got = sys.TapOutcome(evs[:end])
							evs = evs[end:]
						} else if want.Level == core.LevelUnsampled {
							got.Level = core.LevelUnsampled
						}
						if got != want && mismatches < 5 {
							mismatches++
							t.Errorf("%s system %d: reference %+v outcome %+v, AccessOutcome %+v", name, k, accs[ref], got, want)
						}
					}
					if len(evs) != 0 {
						t.Fatalf("%s: %d events left past the batch", name, len(evs))
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			for k := range systems {
				systems[k].AddInstructions(st.Instructions())
				solo[k].AddInstructions(st.Instructions())
				if got, want := systems[k].Results(), solo[k].Results(); !reflect.DeepEqual(got, want) {
					t.Errorf("%s system %d: Results after ReplayFront differ from the solo run\n got %+v\nwant %+v", name, k, got, want)
				}
			}
		}
	}
	for g, group := range groups {
		if kinds[g][0] == 0 || (group[0].L1D.Alloc == cache.NoWriteAllocate) != (kinds[g][1] > 0) {
			t.Errorf("group %d: tapped %d write-backs and %d store-throughs; the comparison misses an event kind", g, kinds[g][0], kinds[g][1])
		}
	}
}

// TestReplayFrontRejectsMixedFronts refuses systems whose L1s differ.
func TestReplayFrontRejectsMixedFronts(t *testing.T) {
	cfgs := multiConfigs()
	victim := cfgs[1]
	victim.VictimEntries = 4
	systems := []*core.System{mustNew(t, cfgs[0]), mustNew(t, victim)}
	st := recordTrace(t, "embar", 0.01)
	err := core.ReplayFront(context.Background(), systems, st, func(int, []core.TapEvent) {
		t.Fatal("callback ran for a mixed front")
	})
	if err == nil {
		t.Fatal("ReplayFront accepted a victim-cache system")
	}
}

func mustNew(t *testing.T, cfg core.Config) *core.System {
	t.Helper()
	sys, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}
