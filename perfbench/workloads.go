package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"time"

	"streamsim/internal/experiments"
	"streamsim/internal/search"
	"streamsim/internal/tab"
)

// defaultSeed is the seed whose design-search digest is committed.
const defaultSeed = 1

// benchWorkload is one benchmark workload: either a list of paper
// experiments replayed exactly, or one seeded design-space search.
type benchWorkload struct {
	name string
	// exps lists the experiments an iteration runs, in order; empty for
	// the search workload.
	exps []string
	// search is set for the search workload.
	search bool
}

// params size a workload.
type params struct {
	// scale is experiments.Options.Scale or search.Spec.Scale.
	scale float64
	// budget is search.Spec.Budget (search only).
	budget int
}

var workloads = []benchWorkload{
	// The paper itself: Tables 1-3 and Figures 3, 5, 8 and 9.
	{name: "paper-core", exps: []string{"table1", "fig3", "table2", "fig5", "table3", "fig8", "fig9"}},
	// The experiments that run bespoke loops outside the fan-out engine:
	// on-chip prefetchers, the timing model, set-sampled L2s, banks.
	{name: "ext-models", exps: []string{"extbase", "extcpi", "extcost", "table4", "extscale", "extbank"}},
	// Successive halving over a space mixing shared-front and
	// victim-cache configurations on one long trace.
	{name: "design-search", search: true},
}

// benchParams sizes each workload for the benchmark proper: one
// iteration takes a few seconds on a 2-core host, so a run holds
// several and reports their median.
var benchParams = map[string]params{
	"paper-core":    {scale: 0.1},
	"ext-models":    {scale: 0.05},
	"design-search": {scale: 0.5, budget: 1024},
}

// smokeParams sizes each workload for the benchmark's own tests.
var smokeParams = map[string]params{
	"paper-core":    {scale: 0.01},
	"ext-models":    {scale: 0.01},
	"design-search": {scale: 0.05, budget: 24},
}

// searchWorkload is the trace the design search replays: a NAS solver
// at its large input, long enough (over 64 sample windows at the bench
// scale) that full-trace scores go through the windowed engine.
const (
	searchWorkload = "appbt"
	searchSize     = "large"
)

// searchSpace has 768 configurations, far more than the budget, so the
// seed decides which are sampled. A third of them have no victim cache
// and share one L1 front in the fan-out engine; victim configurations
// cannot share it.
var searchSpace = []search.Dim{
	{Param: "streams", Values: []int{1, 2, 3, 4, 6, 8, 10, 12}},
	{Param: "depth", Values: []int{1, 2, 3, 4}},
	{Param: "filter", Values: []int{0, 16}},
	{Param: "czone", Values: []int{12, 14, 16, 18}},
	{Param: "victim", Values: []int{0, 2, 4, 8, 16}},
	{Param: "assoc", Values: []int{2, 4}},
	{Param: "latency", Values: []int{0, 8, 32}},
}

func lookupWorkload(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// allExperimentIDs lists every experiment any workload runs, in a fixed
// order, so a traced run prints the same metric names on every workload.
func allExperimentIDs() []string {
	var ids []string
	for _, w := range workloads {
		ids = append(ids, w.exps...)
	}
	return ids
}

// refKey names a workload at one sizing in the reference file.
func refKey(w benchWorkload, p params) string {
	if w.search {
		return fmt.Sprintf("%s@scale=%g,budget=%d", w.name, p.scale, p.budget)
	}
	return fmt.Sprintf("%s@scale=%g", w.name, p.scale)
}

// searchOutput names the design-search output of one seed.
func searchOutput(seed int64) string { return fmt.Sprintf("search/seed=%d", seed) }

// job is a prepared workload run.
type job struct {
	w    benchWorkload
	p    params
	seed int64
	key  string
	exps []experiments.Experiment
	spec search.Spec
	// refs is the logical reference count of one experiment iteration:
	// the references its experiments replay or walk, fixed by the
	// workload and scale (committed with the digests).
	refs int64
	// want maps output names to committed digests; a missing search
	// digest is derived from the Scratch oracle after the timed phase.
	want  map[string]string
	check check
}

// prepare is the benchmark's set-up: resolve the workload, load its
// reference digests and build the search spec.
func prepare(w benchWorkload, p params, seed int64) (*job, error) {
	refs, err := loadReferences()
	if err != nil {
		return nil, err
	}
	j := &job{w: w, p: p, seed: seed, key: refKey(w, p), want: map[string]string{}}
	if w.search {
		j.spec = search.Spec{
			Workload: searchWorkload, Size: searchSize, Scale: p.scale,
			Space: searchSpace, Strategy: "halving", Budget: p.budget,
			Seed: seed, Parallel: runtime.GOMAXPROCS(0),
		}
		if err := j.spec.Validate(); err != nil {
			return nil, err
		}
		if d, ok := refs.Digests[j.key+"/"+searchOutput(seed)]; ok {
			j.want[searchOutput(seed)] = d
		}
		return j, nil
	}
	for _, id := range w.exps {
		e, err := experiments.Lookup(id)
		if err != nil {
			return nil, err
		}
		j.exps = append(j.exps, e)
		if d, ok := refs.Digests[j.key+"/"+id]; ok {
			j.want[id] = d
		}
	}
	j.refs = refs.Refs[j.key]
	return j, nil
}

// iteration is one timed repetition of a workload's operation.
type iteration struct {
	// wall and cpu are the iteration's wall-clock and process CPU
	// time, calibration passes left out.
	wall, cpu time.Duration
	// outputs are the digests of everything the iteration produced.
	outputs []output
	// expSec is each experiment's CPU seconds.
	expSec map[string]float64
	// segs are the CPU times of the iteration's segments: its
	// experiments, or its halving generations and the search's tail. A
	// calibration pass runs before each, so segment k lies between the
	// phase's passes calFrom+k and calFrom+k+1.
	segs []time.Duration
	// calFrom is the index of the pass before the first segment.
	calFrom int
	// norm is cpu normalized to the nominal host, and calib the median
	// calibration pass around and inside the iteration (see calib.go).
	norm, calib float64
	// refs is the logical reference count behind norm_refs_per_s.
	refs int64
	// replayed is the experiments.ReplayedRefs delta (experiments only).
	replayed int64
	// ebErr is Table 2's mean |EB - paper EB| in points (table2 only).
	ebErr float64
	hasEB bool
	res   *search.Result
}

// addSegment records a finished segment timed by sw and returns its
// CPU time.
func (it *iteration) addSegment(sw stopwatch) time.Duration {
	wall, cpu := sw.elapsed()
	it.segs = append(it.segs, cpu)
	it.wall += wall
	it.cpu += cpu
	return cpu
}

type output struct {
	name   string
	digest string
}

// iterate runs the workload's operation once. rec, when non-nil,
// records a span per experiment or per halving generation. cal, when
// non-nil, takes a calibration pass before each experiment or halving
// generation; the iteration's times leave the passes out.
func (j *job) iterate(ctx context.Context, rec *recorder, cal *calibrator) (iteration, error) {
	if j.w.search {
		return j.iterateSearch(ctx, rec, cal)
	}
	it := iteration{expSec: map[string]float64{}, refs: j.refs, calFrom: cal.mark()}
	tables := make([]*tab.Table, len(j.exps))
	// Every iteration generates and encodes its traces, as every
	// reproduction run pays.
	experiments.ResetTraceCache()
	before := experiments.ReplayedRefs()
	root := rec.begin("iteration "+j.w.name, 0)
	for i, e := range j.exps {
		cal.sample()
		sp := rec.begin("experiments."+e.ID, root)
		sw := startStopwatch()
		t, err := e.Run(ctx, experiments.Options{Scale: j.p.scale, Shards: 1})
		if err != nil {
			return it, fmt.Errorf("%s: %w", e.ID, err)
		}
		it.expSec[e.ID] = it.addSegment(sw).Seconds()
		rec.end(sp)
		tables[i] = t
	}
	rec.end(root)
	it.replayed = int64(experiments.ReplayedRefs() - before)
	for i, e := range j.exps {
		it.outputs = append(it.outputs, output{e.ID, digest(tables[i].CSV())})
		if e.ID == "table2" {
			v, err := ebError(tables[i])
			if err != nil {
				return it, err
			}
			it.ebErr, it.hasEB = v, true
		}
	}
	return it, nil
}

func (j *job) iterateSearch(ctx context.Context, rec *recorder, cal *calibrator) (iteration, error) {
	it := iteration{calFrom: cal.mark()}
	cal.sample()
	root := rec.begin("iteration "+j.w.name, 0)
	last := rec.now()
	// A generation ends a segment. The callback runs on the search's
	// own goroutine, so the search is stopped while the pass runs.
	sw := startStopwatch()
	onProgress := func(p search.Progress) {
		it.addSegment(sw)
		now := rec.now()
		rec.add(span{
			Name:   fmt.Sprintf("search.generation%d windows=%d", p.Generation, p.Windows),
			Parent: root, Start: last, End: now,
		})
		cal.sample()
		last = rec.now()
		sw = startStopwatch()
	}
	res, err := search.RunProgress(ctx, j.spec, onProgress)
	if err != nil {
		return it, err
	}
	it.addSegment(sw)
	rec.end(root)
	it.res = res
	it.refs = res.RefsScratch
	d, err := searchDigest(res)
	if err != nil {
		return it, err
	}
	it.outputs = []output{{searchOutput(j.seed), d}}
	return it, nil
}

// verify compares every iteration's outputs with the references. A
// search seed with no committed digest takes its reference from the
// Scratch oracle, which disables checkpointing and the eval memo and is
// byte-identical to the incremental search by design.
func (j *job) verify(ctx context.Context, its []iteration) error {
	j.check = check{source: "committed digests"}
	if j.w.search {
		name := searchOutput(j.seed)
		if _, ok := j.want[name]; !ok {
			d, err := oracleDigest(ctx, j.spec)
			if err != nil {
				return err
			}
			j.want[name] = d
			j.check.source = "Scratch oracle"
		}
	}
	for _, it := range its {
		for _, o := range it.outputs {
			j.check.compare(o, j.want)
		}
	}
	return nil
}

// oracleDigest runs spec with the incremental layer off.
func oracleDigest(ctx context.Context, spec search.Spec) (string, error) {
	spec.Scratch = true
	res, err := search.Run(ctx, spec)
	if err != nil {
		return "", fmt.Errorf("scratch oracle: %w", err)
	}
	return searchDigest(res)
}

// paperEBErr is the mean Table 2 EB error of the run, when the workload
// runs Table 2. It is deterministic, so any iteration's value serves.
func (j *job) paperEBErr(its []iteration) (float64, bool) {
	for _, it := range its {
		if it.hasEB {
			return it.ebErr, true
		}
	}
	return 0, false
}

// ebError is the mean |EB - paper EB| over Table 2's rows, read from
// the table's own columns.
func ebError(t *tab.Table) (float64, error) {
	eb, paper := -1, -1
	for i, c := range t.Columns {
		switch c {
		case "EB %":
			eb = i
		case "paper EB %":
			paper = i
		}
	}
	if eb < 0 || paper < 0 || len(t.Rows) == 0 {
		return 0, fmt.Errorf("table2: no EB and paper EB columns")
	}
	sum := 0.0
	for _, row := range t.Rows {
		a, err1 := strconv.ParseFloat(row[eb], 64)
		b, err2 := strconv.ParseFloat(row[paper], 64)
		if err1 != nil || err2 != nil {
			return 0, fmt.Errorf("table2: unparsable EB cells %q, %q", row[eb], row[paper])
		}
		sum += math.Abs(a - b)
	}
	return sum / float64(len(t.Rows)), nil
}

// medianExperiment is the median CPU time of experiment id over the
// iterations, or 0 when the workload does not run it.
func medianExperiment(its []iteration, id string) float64 {
	var xs []float64
	for _, it := range its {
		if s, ok := it.expSec[id]; ok {
			xs = append(xs, s)
		}
	}
	return median(xs)
}

// searchMetrics reports the search layer's counts from the last traced
// iteration; all are 0 on workloads that run no search.
func searchMetrics(its []iteration) map[string]metric {
	m := map[string]metric{
		"search.evals":            {0, "count"},
		"search.refs_saved_ratio": {0, "ratio"},
		"search.memo_hits":        {0, "count"},
	}
	if len(its) == 0 || its[len(its)-1].res == nil {
		return m
	}
	r := its[len(its)-1].res
	m["search.evals"] = metric{float64(r.Evals), "count"}
	if r.RefsSimulated > 0 {
		m["search.refs_saved_ratio"] = metric{float64(r.RefsScratch) / float64(r.RefsSimulated), "ratio"}
	}
	m["search.memo_hits"] = metric{float64(r.CacheHits), "count"}
	return m
}
