package core_test

// The window-sharded engine's equivalence gates. The window-by-window
// oracle below proves every index checkpoint against plain sequential
// replays, the fallback tests prove the shapes the engine refuses to
// shard replay exactly, and the worker-width test proves the sharded
// results are a function of the chunk plan alone. These are the
// dynamic halves of the static determinism annotations:
//
//simlint:deterministic streamsim/internal/core.ReplayStoreMultiWindowed
//simlint:deterministic (*streamsim/internal/core.System).Merge

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"streamsim/internal/core"
	"streamsim/internal/mem"
	"streamsim/internal/trace"
	"streamsim/internal/workload"
)

// sequentialResults replays st through each config alone with
// ReplayStore: the exact reference every windowed replay is held to.
func sequentialResults(t *testing.T, cfgs []core.Config, st *trace.Store) []core.Results {
	t.Helper()
	want := make([]core.Results, len(cfgs))
	for i, sys := range newSystems(t, cfgs) {
		if err := core.ReplayStore(context.Background(), sys, st); err != nil {
			t.Fatal(err)
		}
		want[i] = sys.Results()
	}
	return want
}

// checkExact requires every system's results to equal want.
func checkExact(t *testing.T, systems []*core.System, want []core.Results) {
	t.Helper()
	for i, sys := range systems {
		if got := sys.Results(); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("config %d: results diverge from sequential\ngot  %+v\nwant %+v", i, got, want[i])
		}
	}
}

// TestReplayWindowedExactMatchesSequential is the seek oracle: for
// every workload and the mixed config set, replaying window by window
// — each window a separate ReplayStoreMultiPrefixFrom(w, w+1) call
// that seeks the decoder afresh and hands the shared front back to the
// systems at its end — is byte-identical to one ReplayStore pass per
// config. A passing run proves every window checkpoint in every
// recorded trace: the seek state, the window lengths and the bounded
// decode all agree with a straight pass.
func TestReplayWindowedExactMatchesSequential(t *testing.T) {
	const scale = 0.05
	ctx := context.Background()
	cfgs := multiConfigs()
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			st := recordTrace(t, name, scale)
			want := sequentialResults(t, cfgs, st)
			systems := newSystems(t, cfgs)
			for w := 0; w < st.WindowCount(); w++ {
				if err := core.ReplayStoreMultiPrefixFrom(ctx, systems, st, w, w+1); err != nil {
					t.Fatal(err)
				}
			}
			checkExact(t, systems, want)
		})
	}
}

// TestReplayWindowedFallbacksAreExact pins the shapes that must not
// shard — short traces, a single-chunk plan, and systems carrying
// traffic hooks — and checks each yields results byte-identical to a
// sequential replay.
func TestReplayWindowedFallbacksAreExact(t *testing.T) {
	ctx := context.Background()
	cfgs := multiConfigs()
	// 8 windows: enough for seeks to matter, too few for the plan.
	st := syntheticStore(8 * trace.WindowRefs)
	want := sequentialResults(t, cfgs, st)

	t.Run("short-trace-auto", func(t *testing.T) {
		systems := newSystems(t, cfgs)
		if err := core.ReplayStoreMultiWindowed(ctx, systems, st); err != nil {
			t.Fatal(err)
		}
		checkExact(t, systems, want)
	})
	t.Run("forced-single-shard", func(t *testing.T) {
		// One chunk from window 0 has no warmup to approximate: the
		// fork, merge and trace-end adoption must reproduce the
		// sequential replay exactly.
		systems := newSystems(t, cfgs)
		if err := core.ReplayWindowedChunks(ctx, systems, st, 1, 1); err != nil {
			t.Fatal(err)
		}
		checkExact(t, systems, want)
	})
	t.Run("hooked-system", func(t *testing.T) {
		// A trace long enough for a two-chunk plan: unhooked, the
		// engine shards it (and diverges); hooked, it must replay
		// exactly.
		long := recordTrace(t, "cgm", 0.2)
		if long.WindowCount() < 64 {
			t.Fatalf("trace too short to shard: %d windows", long.WindowCount())
		}
		longWant := sequentialResults(t, cfgs, long)
		sharded := newSystems(t, cfgs)
		if err := core.ReplayStoreMultiWindowed(ctx, sharded, long); err != nil {
			t.Fatal(err)
		}
		same := true
		for i, sys := range sharded {
			same = same && reflect.DeepEqual(sys.Results(), longWant[i])
		}
		if same {
			t.Error("unhooked replay of a shardable trace matched sequential exactly; the engine did not shard")
		}

		hooked := append([]core.Config(nil), cfgs...)
		var mu sync.Mutex
		var blocks []mem.Addr
		hooked[0].OnMemoryTraffic = func(blk mem.Addr) {
			mu.Lock()
			blocks = append(blocks, blk)
			mu.Unlock()
		}
		systems := newSystems(t, hooked)
		if err := core.ReplayStoreMultiWindowed(ctx, systems, long); err != nil {
			t.Fatal(err)
		}
		checkExact(t, systems, longWant)
		mu.Lock()
		defer mu.Unlock()
		if len(blocks) == 0 {
			t.Error("traffic hook never fired during fallback replay")
		}
	})
}

// TestReplayWindowedWorkerWidthInvariant pins the engine's central
// determinism claim: the chunk plan depends only on the trace, so a
// sharded replay produces byte-identical results at any worker count —
// one goroutine or many.
func TestReplayWindowedWorkerWidthInvariant(t *testing.T) {
	ctx := context.Background()
	cfgs := multiConfigs()
	st := recordTrace(t, "mgrid", 0.2)
	if st.WindowCount() < 8 {
		t.Fatalf("trace too short to shard: %d windows", st.WindowCount())
	}

	var want []core.Results
	for _, workers := range []int{1, 2, 8} {
		systems := newSystems(t, cfgs)
		if err := core.ReplayWindowedChunks(ctx, systems, st, 4, workers); err != nil {
			t.Fatal(err)
		}
		res := make([]core.Results, len(systems))
		for i, sys := range systems {
			res[i] = sys.Results()
		}
		if want == nil {
			want = res
			continue
		}
		if !reflect.DeepEqual(res, want) {
			t.Errorf("results at %d workers diverge from 1 worker", workers)
		}
	}
}

// Worst-case divergence of a four-chunk sharded replay from the exact
// one, in percentage points, over every workload at scale 0.1 and the
// mixed config set (see TestReplayWindowedBoundedDivergence). These
// are the measured maxima rounded up to the next hundredth — hit rate
// 0.804 (adm, czone), EB 1.360 (adm, two plain streams), miss rate
// 0.033 — and DESIGN.md §10 quotes them. The sharded results are a
// function of the trace alone, so the maxima are exact, not samples.
const (
	maxHitDivergence      = 0.81
	maxEBDivergence       = 1.37
	maxMissRateDivergence = 0.04
)

// TestReplayWindowedBoundedDivergence bounds the warmup approximation
// on every workload and on every metric the optimizer scores (stream
// hit rate, extra bandwidth, data miss rate): a sharded replay must
// present every reference exactly once (reference counts are exact,
// not approximate) and each metric must sit within the measured
// worst case of the sequential truth — the only error source is each
// chunk's residual cache and stream state after warmup. Four chunks on
// traces of 14 to 551 windows is a harsher split than the engine's own
// plan (at least 32 counted windows per chunk), so the bound is
// conservative for the optimizer's full-trace scores.
func TestReplayWindowedBoundedDivergence(t *testing.T) {
	ctx := context.Background()
	cfgs := multiConfigs()
	var worstHit, worstEB, worstMiss float64
	for _, name := range workload.Names() {
		st := recordTrace(t, name, 0.1)
		// The exact reference: ReplayStoreAll is pinned byte-identical
		// to solo replays by TestReplayStoreMultiMatchesIndependent.
		exact := newSystems(t, cfgs)
		if err := core.ReplayStoreAll(ctx, exact, st); err != nil {
			t.Fatal(err)
		}
		want := make([]core.Results, len(exact))
		for i, sys := range exact {
			want[i] = sys.Results()
		}
		systems := newSystems(t, cfgs)
		if err := core.ReplayWindowedChunks(ctx, systems, st, 4, 2); err != nil {
			t.Fatal(err)
		}
		for i, sys := range systems {
			got := sys.Results()
			if g, w := got.L1I.Accesses+got.L1D.Accesses, want[i].L1I.Accesses+want[i].L1D.Accesses; g != w {
				t.Errorf("%s config %d: sharded replay presented %d refs, want exactly %d", name, i, g, w)
			}
			for _, m := range []struct {
				metric      string
				g, w, bound float64
				worst       *float64
			}{
				{"StreamHitRate", got.StreamHitRate(), want[i].StreamHitRate(), maxHitDivergence, &worstHit},
				{"ExtraBandwidth", got.ExtraBandwidth(), want[i].ExtraBandwidth(), maxEBDivergence, &worstEB},
				{"DataMissRate", got.DataMissRate(), want[i].DataMissRate(), maxMissRateDivergence, &worstMiss},
			} {
				d := math.Abs(m.g - m.w)
				*m.worst = math.Max(*m.worst, d)
				if d > m.bound {
					t.Errorf("%s config %d: %s %.3f diverges from sequential %.3f by %.3f > %.2f",
						name, i, m.metric, m.g, m.w, d, m.bound)
				}
			}
		}
	}
	t.Logf("worst divergence: hit %.3f, EB %.3f, miss rate %.3f points", worstHit, worstEB, worstMiss)
}

// TestReplayWindowedCancel exercises the chunk worker pool under
// cancellation: a pre-cancelled context stops before any merge lands,
// and a mid-flight cancel (the simd service shape, race-clean under
// -race) reports context.Canceled, never a partial-success nil. The
// exact fallback of a short trace cancels the same way.
func TestReplayWindowedCancel(t *testing.T) {
	// 64 windows: the shortest trace the engine splits (two chunks).
	st := syntheticStore(64 * trace.WindowRefs)
	cfgs := multiConfigs()

	t.Run("pre-cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		systems := newSystems(t, cfgs)
		if err := core.ReplayStoreMultiWindowed(ctx, systems, st); err != context.Canceled {
			t.Fatalf("ReplayStoreMultiWindowed = %v, want context.Canceled", err)
		}
		for i, sys := range systems {
			r := sys.Results()
			if consumed := r.L1I.Accesses + r.L1D.Accesses; consumed != 0 {
				t.Errorf("system %d merged %d refs after pre-cancel, want 0", i, consumed)
			}
		}
	})
	t.Run("mid-flight", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		systems := newSystems(t, cfgs)
		var wg sync.WaitGroup
		wg.Add(1)
		errc := make(chan error, 1)
		go func() {
			defer wg.Done()
			errc <- core.ReplayStoreMultiWindowed(ctx, systems, st)
		}()
		cancel()
		wg.Wait()
		if err := <-errc; err != nil && err != context.Canceled {
			t.Fatalf("ReplayStoreMultiWindowed = %v, want nil or context.Canceled", err)
		}
	})
	t.Run("exact-pre-cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		systems := newSystems(t, cfgs)
		short := syntheticStore(8 * trace.WindowRefs)
		if err := core.ReplayStoreMultiWindowed(ctx, systems, short); err != context.Canceled {
			t.Fatalf("exact fallback = %v, want context.Canceled", err)
		}
	})
}

// TestReplayWindowedAutoRouting checks the chunk plan's routing at its
// edges: an empty system set is a no-op, a trace too short to split
// replays exactly, and a forced two-chunk plan on the same trace still
// counts every reference exactly once.
func TestReplayWindowedAutoRouting(t *testing.T) {
	ctx := context.Background()
	st := syntheticStore(4 * trace.WindowRefs)
	if err := core.ReplayStoreMultiWindowed(ctx, nil, st); err != nil {
		t.Fatalf("empty system set: %v", err)
	}
	cfgs := multiConfigs()[:1]
	one := newSystems(t, cfgs)
	if err := core.ReplayStoreMultiWindowed(ctx, one, st); err != nil {
		t.Fatal(err)
	}
	checkExact(t, one, sequentialResults(t, cfgs, st))
	two := newSystems(t, cfgs)
	if err := core.ReplayWindowedChunks(ctx, two, st, 2, 2); err != nil {
		t.Fatal(err)
	}
	if consumed := two[0].Results().L1D.Accesses; consumed != uint64(st.Len()) {
		t.Errorf("forced two-chunk replay counted %d refs, want %d", consumed, st.Len())
	}
}
