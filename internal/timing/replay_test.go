package timing

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"streamsim/internal/cache"
	"streamsim/internal/core"
	"streamsim/internal/mem"
	"streamsim/internal/stream"
	"streamsim/internal/trace"
	"streamsim/internal/workload"
)

// replayScale and replayCap keep the fifteen-workload oracle
// comparison quick (the longest traces are cut to their first
// replayCap references) while every trace still evicts, writes back
// and streams.
const (
	replayScale = 0.005
	replayCap   = 300_000
)

// paperCfg is the paper's L1 front with n unfiltered streams (n = 0:
// bare L1 + memory).
func paperCfg(n int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Streams = stream.Config{Streams: n, Depth: 2}
	cfg.UnitFilterEntries = 0
	cfg.Stride = core.NoStrideDetection
	return cfg
}

// filteredCfg is the paper's full Section 7 system.
func filteredCfg() core.Config {
	cfg := paperCfg(10)
	cfg.UnitFilterEntries = 16
	cfg.Stride = core.CzoneScheme
	cfg.StrideFilterEntries = 16
	cfg.CzoneBits = 16
	return cfg
}

// modelSet builds one group of timing models replayed together.
type modelSet struct {
	name  string
	build func(t *testing.T) []*Model
}

func mustModel(t *testing.T, cfg core.Config, lat Latencies) *Model {
	t.Helper()
	m, err := New(cfg, lat)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// modelSets covers the fan-outs the extension experiments replay (the
// three CPI systems; the equal-cost L2 node beside a stream node on a
// faster bus) plus the configurations the shared front must not or
// need not take: victim caches (each model simulates its own L1) and a
// no-write-allocate L1D (stores that miss go to memory unfilled).
func modelSets() []modelSet {
	lat := DefaultLatencies()
	return []modelSet{
		{"cpi", func(t *testing.T) []*Model {
			return []*Model{
				mustModel(t, paperCfg(0), lat),
				mustModel(t, paperCfg(10), lat),
				mustModel(t, filteredCfg(), lat),
			}
		}},
		{"cost", func(t *testing.T) []*Model {
			latL2, latS := lat, lat
			latL2.BusBlock, latS.BusBlock = 43, 11
			ml2, err := NewWithL2(paperCfg(0), cache.Config{
				Name: "L2", SizeBytes: 1 << 20, Assoc: 4, BlockBytes: 64,
				Replacement: cache.LRU, Write: cache.WriteBack, Alloc: cache.WriteAllocate,
			}, latL2)
			if err != nil {
				t.Fatal(err)
			}
			return []*Model{ml2, mustModel(t, filteredCfg(), latS)}
		}},
		{"victim", func(t *testing.T) []*Model {
			cfg := paperCfg(4)
			cfg.VictimEntries = 4
			cfg.L1D.Assoc = 1
			return []*Model{mustModel(t, cfg, lat), mustModel(t, paperCfg(4), lat)}
		}},
		{"no-write-allocate", func(t *testing.T) []*Model {
			cfg := filteredCfg()
			cfg.L1D.Alloc = cache.NoWriteAllocate
			bare := paperCfg(0)
			bare.L1D.Alloc = cache.NoWriteAllocate
			return []*Model{mustModel(t, cfg, lat), mustModel(t, bare, lat)}
		}},
	}
}

// accessLoop is the oracle: the per-reference loop ReplayStore
// replaces, one model at a time — Access for every reference, the
// store's positioned instruction counts before their references, and
// extra spread evenly after each reference with the remainder last.
func accessLoop(t *testing.T, m *Model, st *trace.Store, extra uint64) {
	t.Helper()
	var perRef uint64
	if n := uint64(st.Len()); n > 0 {
		perRef = extra / n
	}
	marks := st.InstEvents()
	buf := make([]mem.Access, trace.ReplayBatchLen)
	it := st.Iter()
	idx := 0
	for n := it.Next(buf); n > 0; n = it.Next(buf) {
		for _, a := range buf[:n] {
			for len(marks) > 0 && marks[0].Index == idx {
				m.AddInstructions(marks[0].N)
				marks = marks[1:]
			}
			m.Access(a)
			m.AddInstructions(perRef)
			idx++
		}
	}
	for _, ev := range marks {
		m.AddInstructions(ev.N)
	}
	m.AddInstructions(extra - perRef*uint64(st.Len()))
}

var (
	tracesOnce sync.Once
	traces     map[string]*trace.Store
	tracesErr  error
)

// workloadTraces records every benchmark once, with its instruction
// counts at their positions.
func workloadTraces(t *testing.T) map[string]*trace.Store {
	t.Helper()
	tracesOnce.Do(func() {
		traces = map[string]*trace.Store{}
		for _, name := range workload.Names() {
			w, err := workload.New(name, workload.SizeSmall)
			if err != nil {
				tracesErr = err
				return
			}
			st := trace.NewStore(int(workload.EstimateRefs(name, workload.SizeSmall, replayScale)))
			if err := w.RunContext(context.Background(), st, replayScale); err != nil {
				tracesErr = err
				return
			}
			traces[name] = capped(st, replayCap)
		}
	})
	if tracesErr != nil {
		t.Fatal(tracesErr)
	}
	return traces
}

// capped copies the first n references of st, with the instruction
// counts positioned among them.
func capped(st *trace.Store, n int) *trace.Store {
	if st.Len() <= n {
		return st
	}
	out := trace.NewStore(n)
	marks := st.InstEvents()
	buf := make([]mem.Access, trace.ReplayBatchLen)
	it := st.Iter()
	for k := it.Next(buf); k > 0 && out.Len() < n; k = it.Next(buf) {
		for _, a := range buf[:k] {
			if out.Len() == n {
				break
			}
			for len(marks) > 0 && marks[0].Index == out.Len() {
				out.AddInstructions(marks[0].N)
				marks = marks[1:]
			}
			out.Append(a)
		}
	}
	return out
}

// sameModels asserts a batched replay left every model exactly where
// the oracle loop did.
func sameModels(t *testing.T, what string, got, want []*Model) {
	t.Helper()
	for i := range got {
		if g, w := got[i].Stats(), want[i].Stats(); g != w {
			t.Errorf("%s model %d: Stats %+v, oracle %+v", what, i, g, w)
		}
		if g, w := got[i].Results(), want[i].Results(); !reflect.DeepEqual(g, w) {
			t.Errorf("%s model %d: Results differ\n got %+v\nwant %+v", what, i, g, w)
		}
		if got[i].L2() != nil {
			if g, w := got[i].L2().Stats(), want[i].L2().Stats(); g != w {
				t.Errorf("%s model %d: L2 stats %+v, oracle %+v", what, i, g, w)
			}
		}
	}
}

// TestReplayStoreMatchesAccessLoop is the equivalence oracle for the
// batched timing replay: on every workload, every model set — shared
// front or not — ends with the Stats and Results of the per-reference
// Access loop, retiring the store's own positioned instruction counts
// and an evenly spread external count on top.
//
//simlint:deterministic streamsim/internal/timing.ReplayStore
func TestReplayStoreMatchesAccessLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("replays fifteen workloads")
	}
	for name, st := range workloadTraces(t) {
		for _, set := range modelSets() {
			extra := 3*uint64(st.Len()) + 17
			got, want := set.build(t), set.build(t)
			if err := ReplayStore(context.Background(), got, st, extra); err != nil {
				t.Fatal(err)
			}
			for _, m := range want {
				accessLoop(t, m, st, extra)
			}
			sameModels(t, name+"/"+set.name, got, want)
		}
	}
}

// TestReplayStoreMatchesReplayContext pins the positioned mode to the
// store's own event-order replay, the path CPI sweeps used to take.
func TestReplayStoreMatchesReplayContext(t *testing.T) {
	st := workloadTraces(t)["mgrid"]
	for _, set := range modelSets() {
		got, want := set.build(t), set.build(t)
		if err := ReplayStore(context.Background(), got, st, 0); err != nil {
			t.Fatal(err)
		}
		for _, m := range want {
			if err := st.ReplayContext(context.Background(), m); err != nil {
				t.Fatal(err)
			}
		}
		sameModels(t, set.name, got, want)
	}
}

// TestReplayStoreTakesSharedFront checks the fan-out groups route as
// intended: the paper-front sets share one front, the victim set does
// not.
func TestReplayStoreTakesSharedFront(t *testing.T) {
	for _, set := range modelSets() {
		ms := set.build(t)
		systems := make([]*core.System, len(ms))
		for i, m := range ms {
			systems[i] = m.System()
		}
		want := set.name != "victim"
		if got := core.SharedFront(systems); got != want {
			t.Errorf("%s: SharedFront = %v, want %v", set.name, got, want)
		}
	}
}

// TestReplayStoreCancelled stops within a batch boundary and reports
// the context's error.
func TestReplayStoreCancelled(t *testing.T) {
	st := workloadTraces(t)["mgrid"]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, set := range modelSets() {
		ms := set.build(t)
		if err := ReplayStore(ctx, ms, st, 0); err != context.Canceled {
			t.Errorf("%s: cancelled replay returned %v", set.name, err)
		}
		if refs := ms[0].Results().L1D.Accesses; refs > trace.ReplayBatchLen {
			t.Errorf("%s: cancelled replay ran %d references, want at most one batch", set.name, refs)
		}
	}
}

// TestReplayStoreContinuesAccess checks a batched replay leaves each
// model fully usable: later Access calls behave as after an Access
// loop, L1 state and the lazily settled bus included.
func TestReplayStoreContinuesAccess(t *testing.T) {
	st := workloadTraces(t)["cgm"]
	for _, set := range modelSets() {
		got, want := set.build(t), set.build(t)
		if err := ReplayStore(context.Background(), got, st, 5); err != nil {
			t.Fatal(err)
		}
		for _, m := range want {
			accessLoop(t, m, st, 5)
		}
		for i := 0; i < 4096; i++ {
			a := mem.Access{Addr: mem.Addr(1<<26 + i*24), Kind: mem.Kind(i % 3)}
			for k := range got {
				got[k].Access(a)
				want[k].Access(a)
			}
		}
		sameModels(t, set.name, got, want)
	}
}
