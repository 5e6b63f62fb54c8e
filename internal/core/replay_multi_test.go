package core_test

import (
	"context"
	"sync"
	"testing"

	"streamsim/internal/core"
	"streamsim/internal/mem"
	"streamsim/internal/stream"
	"streamsim/internal/trace"
	"streamsim/internal/workload"
)

// multiConfigs is the mixed configuration set the fan-out engine is
// checked against: bare L1, plain streams at two widths, the filtered
// configuration and the czone stride scheme — one of each hardware
// shape the experiments replay through.
func multiConfigs() []core.Config {
	bare := core.DefaultConfig()
	bare.Streams = stream.Config{}
	bare.UnitFilterEntries = 0
	bare.Stride = core.NoStrideDetection

	plain := func(n int) core.Config {
		cfg := core.DefaultConfig()
		cfg.Streams = stream.Config{Streams: n, Depth: 2}
		cfg.UnitFilterEntries = 0
		cfg.Stride = core.NoStrideDetection
		return cfg
	}

	filtered := plain(10)
	filtered.UnitFilterEntries = 16

	strided := filtered
	strided.Stride = core.CzoneScheme
	strided.StrideFilterEntries = 16
	strided.CzoneBits = 16

	return []core.Config{bare, plain(2), plain(8), filtered, strided}
}

// recordTrace runs a workload at a small scale straight into a
// trace.Store (the Store is a workload.Sink).
func recordTrace(t testing.TB, name string, scale float64) *trace.Store {
	t.Helper()
	w, err := workload.New(name, workload.SizeSmall)
	if err != nil {
		t.Fatal(err)
	}
	st := trace.NewStore(int(workload.EstimateRefs(name, workload.SizeSmall, scale)))
	if err := w.Run(st, scale); err != nil {
		t.Fatal(err)
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	return st
}

func newSystems(t testing.TB, cfgs []core.Config) []*core.System {
	t.Helper()
	systems := make([]*core.System, len(cfgs))
	for i, cfg := range cfgs {
		sys, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		systems[i] = sys
	}
	return systems
}

// TestReplayStoreMultiMatchesIndependent pins the fan-out engine's
// contract: for every workload and a mixed config set (one shared L1
// front, so the tap path runs), ReplayStoreAll produces per-system
// results identical to N independent ReplayStore runs.
func TestReplayStoreMultiMatchesIndependent(t *testing.T) {
	const scale = 0.05
	cfgs := multiConfigs()
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			checkAllMatchesIndependent(t, cfgs, recordTrace(t, name, scale))
		})
	}
}

// checkAllMatchesIndependent replays st through cfgs once with
// ReplayStoreAll and requires results byte-identical to one solo
// ReplayStore per config.
func checkAllMatchesIndependent(t *testing.T, cfgs []core.Config, st *trace.Store) {
	t.Helper()
	want := sequentialResults(t, cfgs, st)
	systems := newSystems(t, cfgs)
	if err := core.ReplayStoreAll(context.Background(), systems, st); err != nil {
		t.Fatal(err)
	}
	checkExact(t, systems, want)
}

// TestReplayStoreMultiMixedFront pins the fan-out fallback: when the
// systems do NOT share an L1 front end (different L1 geometry, or a
// victim cache), the engine must replay every system in full and still
// match independent runs. multiConfigs shares one front, so this set
// deliberately breaks it three ways: a direct-mapped L1D, a victim
// cache, and the shared baseline alongside them.
func TestReplayStoreMultiMixedFront(t *testing.T) {
	direct := core.DefaultConfig()
	direct.L1D.Assoc = 1
	direct.L1D.Replacement = 0 // LRU — stamped, exercises the non-deferred batch path too
	victim := core.DefaultConfig()
	victim.VictimEntries = 4
	cfgs := []core.Config{core.DefaultConfig(), direct, victim}
	for _, name := range []string{"mgrid", "cgm"} {
		t.Run(name, func(t *testing.T) {
			checkAllMatchesIndependent(t, cfgs, recordTrace(t, name, 0.05))
		})
	}
}

// syntheticStore builds a long strided trace without running a
// workload, for cancellation tests that need many batches.
func syntheticStore(nRefs int) *trace.Store {
	st := trace.NewStore(nRefs)
	a := mem.Access{Addr: 1 << 24, Kind: mem.Read}
	for i := 0; i < nRefs; i++ {
		st.Append(a)
		a.Addr += 64
	}
	return st
}

// TestReplayStoreMultiCancel checks that a cancelled context aborts
// the fan-out promptly: the call returns ctx.Err() and no system
// consumes more than one extra batch after the cancel. The fan-out
// replays sequentially on the calling goroutine. The pre-cancelled
// variant bounds the damage exactly; the mid-flight variant (cancel
// from another goroutine) is the shape the simd service exercises and
// runs race-clean under -race.
func TestReplayStoreMultiCancel(t *testing.T) {
	st := syntheticStore(64 * trace.ReplayBatchLen)
	cfgs := multiConfigs()

	t.Run("sequential/pre-cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		systems := newSystems(t, cfgs)
		if err := core.ReplayStoreAll(ctx, systems, st); err != context.Canceled {
			t.Fatalf("ReplayStoreAll = %v, want context.Canceled", err)
		}
		for i, sys := range systems {
			r := sys.Results()
			if consumed := r.L1I.Accesses + r.L1D.Accesses; consumed > trace.ReplayBatchLen {
				t.Errorf("system %d consumed %d refs after pre-cancel, want <= one batch (%d)",
					i, consumed, trace.ReplayBatchLen)
			}
		}
	})
	t.Run("sequential/mid-flight", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		systems := newSystems(t, cfgs)
		var wg sync.WaitGroup
		wg.Add(1)
		errc := make(chan error, 1)
		go func() {
			defer wg.Done()
			errc <- core.ReplayStoreAll(ctx, systems, st)
		}()
		cancel()
		wg.Wait()
		// The replay may have finished before the cancel landed;
		// either outcome is legal, but a cancelled run must report
		// context.Canceled, never a partial-success nil.
		if err := <-errc; err != nil && err != context.Canceled {
			t.Fatalf("ReplayStoreAll = %v, want nil or context.Canceled", err)
		}
	})
}

// TestReplayStoreMultiDegenerate covers the zero- and one-system
// shapes: an empty set is a no-op and a single system replays in full
// without a shared front.
func TestReplayStoreMultiDegenerate(t *testing.T) {
	ctx := context.Background()
	st := syntheticStore(3 * trace.ReplayBatchLen)
	if err := core.ReplayStoreAll(ctx, nil, st); err != nil {
		t.Fatalf("empty system set: %v", err)
	}
	one := newSystems(t, multiConfigs()[:1])
	if err := core.ReplayStoreAll(ctx, one, st); err != nil {
		t.Fatal(err)
	}
	if consumed := one[0].Results().L1D.Accesses; consumed != uint64(st.Len()) {
		t.Errorf("single-system replay consumed %d refs, want %d", consumed, st.Len())
	}
}
