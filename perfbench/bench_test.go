package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"streamsim/internal/experiments"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printed renders a report and parses it back.
func printed(t *testing.T, rep *report) (string, result) {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.print(&buf); err != nil {
		t.Fatal(err)
	}
	out := strings.TrimSpace(buf.String())
	var res result
	if err := json.Unmarshal([]byte(out[strings.LastIndex(out, "\n")+1:]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out)
	}
	return out, res
}

// checkMetrics asserts the run printed exactly the declared metrics,
// each with its unit, both in the text lines and in the result.
func checkMetrics(t *testing.T, out string, res result, want map[string]string) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("printed %d metrics, declared %d", len(res.Metrics), len(want))
	}
	for name, unit := range want {
		m, ok := res.Metrics[name]
		if !ok {
			t.Errorf("metric %s missing", name)
			continue
		}
		if m.Unit != unit {
			t.Errorf("metric %s unit %q, declared %q", name, m.Unit, unit)
		}
		found := false
		for _, line := range strings.Split(out, "\n") {
			f := strings.Fields(line)
			if len(f) >= 3 && f[0] == name && f[2] == unit {
				found = true
			}
		}
		if !found {
			t.Errorf("no text line for %s with unit %s", name, unit)
		}
	}
}

// TestSmoke runs every workload at its smoke size, untraced and traced:
// every iteration is calibrated, every declared metric is printed with
// its unit and every output matches its committed digest. A wrong committed digest then makes the
// same outputs fail.
func TestSmoke(t *testing.T) {
	e2e, layers := declared(t)
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				j, err := prepare(w, smokeParams[w.name], defaultSeed)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := execute(ctx, j, runConfig{traced: traced, outDir: t.TempDir(), setup: 0.001})
				if err != nil {
					t.Fatal(err)
				}
				for _, it := range rep.allIterations() {
					if len(it.segs) == 0 || !(it.norm > 0) || math.IsInf(it.norm, 0) || !(it.calib > 0) {
						t.Errorf("iteration not calibrated: %d segments, normalized %v s, pass %v s", len(it.segs), it.norm, it.calib)
					}
				}
				out, res := printed(t, rep)
				want := e2e
				if traced {
					want = layers
				}
				checkMetrics(t, out, res, want)
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 || j.check.failFrac() != 0 {
					t.Fatalf("outputs do not match the references:\n%s", out)
				}

				// A deliberately wrong reference must fail every output it covers.
				for name := range j.want {
					j.want[name] = strings.Repeat("0", 64)
					break
				}
				if err := j.verify(ctx, rep.allIterations()); err != nil {
					t.Fatal(err)
				}
				if _, res := printed(t, rep); res.Correct || res.Failed == 0 || j.check.failFrac() == 0 {
					t.Fatalf("a wrong reference digest passed: %+v", res)
				}
			}
		})
	}
}

// TestDeterminism checks that the digests hold at GOMAXPROCS=1 and at
// nproc, with a cold and a warm trace cache, and that design-search's
// digest equals its Scratch oracle's.
func TestDeterminism(t *testing.T) {
	ctx := context.Background()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, runtime.NumCPU()} {
		runtime.GOMAXPROCS(procs)
		for _, w := range workloads {
			j, err := prepare(w, smokeParams[w.name], defaultSeed)
			if err != nil {
				t.Fatal(err)
			}
			it, err := j.iterate(ctx, nil, nil) // cold: iterate resets the trace cache
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range it.outputs {
				if o.digest != j.want[o.name] {
					t.Errorf("procs %d %s/%s cold: digest %s, want %s", procs, w.name, o.name, o.digest, j.want[o.name])
				}
			}
			if w.search {
				d, err := oracleDigest(ctx, j.spec)
				if err != nil {
					t.Fatal(err)
				}
				if d != j.want[searchOutput(defaultSeed)] {
					t.Errorf("procs %d: Scratch oracle digest %s differs from the reference", procs, d)
				}
				continue
			}
			for _, e := range j.exps { // warm: the traces are cached now
				tb, err := e.Run(ctx, experiments.Options{Scale: j.p.scale, Shards: 1})
				if err != nil {
					t.Fatal(err)
				}
				if d := digest(tb.CSV()); d != j.want[e.ID] {
					t.Errorf("procs %d %s/%s warm: digest %s, want %s", procs, w.name, e.ID, d, j.want[e.ID])
				}
			}
		}
	}
}

// TestLayerCountsRepeat checks that the traced run's exact counts repeat
// bit-for-bit between two runs.
func TestLayerCountsRepeat(t *testing.T) {
	ctx := context.Background()
	w, _ := lookupWorkload("design-search")
	j, err := prepare(w, smokeParams[w.name], defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	var runs [2]*layerReport
	for i := range runs {
		if runs[i], err = driveLayers(ctx, j, newRecorder()); err != nil {
			t.Fatal(err)
		}
	}
	exact := []string{
		"workload.refs", "trace.encode_bytes_per_ref", "cache.l1_hit_ratio",
		"stream.hit_ratio", "stream.useful_prefetch_ratio",
		"filter.unit_alloc_ratio", "filter.czone_alloc_ratio", "prefetch.useful_ratio",
	}
	for _, name := range exact {
		a, b := runs[0].vals[name], runs[1].vals[name]
		if a != b || a.Value == 0 {
			t.Errorf("%s: %v then %v", name, a.Value, b.Value)
		}
	}
}
