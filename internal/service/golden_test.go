package service

import (
	"context"
	"testing"

	"streamsim/internal/experiments"
	"streamsim/internal/service/api"
	"streamsim/internal/sweeprun"
)

// goldenScale keeps the 13-experiment equivalence pass fast; the
// selftest (`make service-smoke`) runs the same check out of process.
const goldenScale = 0.05

// TestGoldenEquivalence submits every paper experiment through the
// HTTP service and checks the returned table is byte-identical to the
// direct in-process run at the same options — the determinism
// guarantee that makes memoized service results trustworthy. The
// directives below are detflow gates (see detflow_static_test.go):
// this pass exercises job execution and, through it, every annotated
// experiment runner.
//
//simlint:deterministic streamsim/internal/service.runRequest
//simlint:deterministic streamsim/internal/experiments.Figure3
//simlint:deterministic streamsim/internal/experiments.Figure9
//simlint:deterministic streamsim/internal/experiments.Table4
//simlint:deterministic streamsim/internal/experiments.Scalability
func TestGoldenEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("golden equivalence runs every experiment; skipped in -short")
	}
	_, cl := newTestServer(t, Config{}) // real runner
	ctx := context.Background()

	// Submit everything first so the pool overlaps the work, then
	// compare each result against its direct run.
	ids := map[string]string{}
	for _, e := range experiments.All() {
		st, err := cl.Submit(ctx, api.SubmitRequest{Experiment: e.ID, Scale: goldenScale})
		if err != nil {
			t.Fatalf("submit %s: %v", e.ID, err)
		}
		ids[e.ID] = st.ID
	}
	// The direct runs start from an empty trace cache, so they
	// simulate afresh instead of reading the service jobs' memoized
	// results.
	for _, e := range experiments.All() {
		if _, err := cl.Wait(ctx, ids[e.ID]); err != nil {
			t.Fatal(err)
		}
	}
	experiments.ResetTraceCache()
	for _, e := range experiments.All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			st, err := cl.Wait(ctx, ids[e.ID])
			if err != nil {
				t.Fatal(err)
			}
			if st.State != api.StateDone {
				t.Fatalf("state = %s (error %q)", st.State, st.Error)
			}
			want, err := e.Run(ctx, experiments.Options{Scale: goldenScale})
			if err != nil {
				t.Fatal(err)
			}
			if st.Text != want.Render() {
				t.Errorf("service table differs from direct run:\nservice:\n%s\ndirect:\n%s", st.Text, want.Render())
			}
			if st.CSV != want.CSV() {
				t.Errorf("service CSV differs from direct run")
			}
		})
	}
}

// TestGoldenSweepEquivalence does the same for a sweep job.
func TestGoldenSweepEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	_, cl := newTestServer(t, Config{}) // real runner
	ctx := context.Background()
	spec := sweepSpec // mgrid, streams, {1,2}; defaults fill the rest

	st, err := cl.Submit(ctx, api.SubmitRequest{Sweep: &spec})
	if err != nil {
		t.Fatal(err)
	}
	if st, err = cl.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	if st.State != api.StateDone {
		t.Fatalf("state = %s (error %q)", st.State, st.Error)
	}
	want, _, err := sweeprun.Run(ctx, spec.WithDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if st.Text != want.Render() {
		t.Errorf("service sweep table differs from direct run:\nservice:\n%s\ndirect:\n%s", st.Text, want.Render())
	}
}
