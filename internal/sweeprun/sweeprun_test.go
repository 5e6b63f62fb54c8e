package sweeprun

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"streamsim/internal/core"
)

// baseSpec is a small sweep that touches the replay path for a real
// benchmark at a fast scale.
func baseSpec(metric string, parallel int) Spec {
	return Spec{
		Workload: "mgrid",
		Param:    "streams",
		Values:   []int{1, 2, 4, 8},
		Metric:   metric,
		Scale:    0.05,
		Parallel: parallel,
	}
}

// TestRunParallelMatchesSequential pins the scheduler's contract: for
// every metric — including cpi, whose event-order fidelity depends on
// the recorded instruction positions — a parallel sweep returns the
// same table and series as a sequential one, in the same order.
//
//simlint:deterministic streamsim/internal/sweeprun.Run
func TestRunParallelMatchesSequential(t *testing.T) {
	for _, metric := range []string{"hit", "eb", "missrate", "cpi"} {
		t.Run(metric, func(t *testing.T) {
			seqTab, seqVals, err := Run(context.Background(), baseSpec(metric, 1))
			if err != nil {
				t.Fatal(err)
			}
			parTab, parVals, err := Run(context.Background(), baseSpec(metric, 4))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seqVals, parVals) {
				t.Errorf("series diverged: sequential %v, parallel %v", seqVals, parVals)
			}
			if !reflect.DeepEqual(seqTab, parTab) {
				t.Errorf("tables diverged:\nsequential %+v\nparallel %+v", seqTab, parTab)
			}
		})
	}
}

// TestRunMatchesSoloReplay pins sweeps to the exact simulation: on a
// trace long enough for the window-sharded engine to split it (appbt
// large at scale 0.05 has at least 64 sample windows), every point of
// a hit and an EB sweep, serial (one fan-out replay) or parallel
// (per-point replays), equals a solo core.ReplayStore of that point's
// configuration.
func TestRunMatchesSoloReplay(t *testing.T) {
	ctx := context.Background()
	_, tr, err := Record(ctx, "appbt", "large", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if k := tr.WindowCount(); k < 64 {
		t.Fatalf("appbt large at 0.05 has %d windows, want >= 64", k)
	}
	values := []int{2, 8}
	solo := make([]core.Results, len(values))
	for i, v := range values {
		cfg := core.DefaultConfig()
		if err := ParamSet["streams"].Apply(&cfg, v); err != nil {
			t.Fatal(err)
		}
		sys, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := core.ReplayStore(ctx, sys, tr); err != nil {
			t.Fatal(err)
		}
		solo[i] = sys.Results()
	}
	for _, metric := range []string{"hit", "eb"} {
		for _, parallel := range []int{1, 2} {
			spec := Spec{Workload: "appbt", Size: "large", Param: "streams", Values: values,
				Metric: metric, Scale: 0.05, Parallel: parallel}
			_, got, err := Run(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range solo {
				want := r.StreamHitRate()
				if metric == "eb" {
					want = r.ExtraBandwidth()
				}
				if got[i] != want {
					t.Errorf("%s parallel=%d streams=%d: sweep %v, solo replay %v",
						metric, parallel, values[i], got[i], want)
				}
			}
		}
	}
}

// TestRunCustomWorkloadParallel covers the custom:<mix> path, whose
// trace comes from a seeded random generator: recording once and
// replaying per point must still be deterministic across widths.
func TestRunCustomWorkloadParallel(t *testing.T) {
	spec := Spec{
		Workload: "custom:0.5,0.3,0.2",
		Param:    "depth",
		Values:   []int{1, 2, 4},
		Scale:    0.2,
	}
	_, seq, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Parallel = 3
	_, par, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("custom workload series diverged: %v vs %v", seq, par)
	}
}

func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, parallel := range []int{1, 4} {
		if _, _, err := Run(ctx, baseSpec("hit", parallel)); err != context.Canceled {
			t.Errorf("parallel=%d: Run on a cancelled ctx = %v, want context.Canceled", parallel, err)
		}
	}
}

func TestValidateRejectsDuplicateValues(t *testing.T) {
	s := baseSpec("hit", 1)
	s.Values = []int{1, 2, 4, 2}
	err := s.Validate()
	if err == nil {
		t.Fatal("duplicate values passed Validate")
	}
	if got := err.Error(); !strings.Contains(got, "duplicate value 2") {
		t.Errorf("duplicate error should name the value, got %q", got)
	}
}

func TestParamSetCoversParamNames(t *testing.T) {
	for _, name := range strings.Split(ParamNames(), ", ") {
		p, ok := ParamSet[name]
		if !ok || p.Apply == nil || p.Doc == "" {
			t.Errorf("ParamSet[%q] missing or undocumented", name)
		}
	}
}

func TestValidateParallel(t *testing.T) {
	s := baseSpec("hit", -1)
	if err := s.Validate(); err == nil {
		t.Error("negative Parallel passed Validate")
	}
	for _, p := range []int{0, 1, 16} {
		s := baseSpec("hit", p)
		if err := s.Validate(); err != nil {
			t.Errorf("Parallel=%d rejected: %v", p, err)
		}
	}
}
