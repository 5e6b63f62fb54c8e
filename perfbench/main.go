// Command perfbench is the reproduction benchmark of streamsim. It runs
// one named workload for a fixed number of seconds through the public
// experiment and search APIs, checks every output against a committed
// digest, and prints its metrics; the last line of standard output is
// one JSON object. See README.md in this directory for the workloads,
// the metrics and how to run it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// setupRepeats is how many times a run measures set-up; setup_s is
// the median of their normalized CPU times.
const setupRepeats = 41

// nullNominal is the CPU time of one nullproc run on the nominal host
// setup_s refers to: about what the reference host took (1.3-1.5 ms).
const nullNominal = 0.0014

// benchProcs is the GOMAXPROCS every measured run uses. On the 2-vCPU
// reference host (see README.md), a second worker made iterations
// slower (paper-core 5.7 s vs 5.2 s) and their run-to-run spread wider
// (about 15% vs 3%), so timed runs use one. The smoke test checks that
// outputs are identical at 1 and at nproc.
const benchProcs = 1

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		wname      = fs.String("workload", "", "workload: paper-core, ext-models or design-search")
		seed       = fs.Int64("seed", defaultSeed, "benchmark seed (design-search: search.Spec.Seed)")
		seconds    = fs.Int("seconds", 10, "length of the timed phase in seconds")
		traced     = fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		out        = fs.String("out", ".bench_build", "directory for the traced run's span file")
		setupProbe = fs.Bool("setup-probe", false, "perform set-up only and exit (used to time set-up)")
		writeRefs  = fs.String("write-refs", "", "recompute the reference digests and write them to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	runtime.GOMAXPROCS(benchProcs)
	ctx := context.Background()
	if *writeRefs != "" {
		return writeReferences(ctx, *writeRefs)
	}
	w, ok := lookupWorkload(*wname)
	if !ok {
		return fmt.Errorf("unknown workload %q (want %s)", *wname, workloadNames())
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *traced)
	}
	if *seconds < 0 {
		return fmt.Errorf("-seconds must be >= 0, got %d", *seconds)
	}
	job, err := prepare(w, benchParams[w.name], *seed)
	if err != nil {
		return err
	}
	if *setupProbe {
		return nil
	}
	cfg := runConfig{seconds: time.Duration(*seconds) * time.Second, traced: *traced == 1, outDir: *out}
	if !cfg.traced {
		if cfg.setup, err = timeSetup(w.name, *seed); err != nil {
			return err
		}
	}
	rep, err := execute(ctx, job, cfg)
	if err != nil {
		return err
	}
	return rep.print(stdout)
}

// runConfig selects how one benchmark run measures.
type runConfig struct {
	seconds time.Duration
	traced  bool
	outDir  string
	setup   float64 // median set-up seconds, measured by timeSetup
}

// timeSetup measures set-up as a user pays it: a fresh process of this
// binary that starts, initializes every simulator package, loads the
// reference digests and prepares the workload, then exits. It runs
// setupRepeats such processes one after another, each right after a
// run of nullproc (built beside this binary by run.sh), and returns the
// median over the pairs of probe CPU time ÷ nullproc CPU time ×
// nullNominal. Starting a process costs the host more at some times
// than at others, by a fifth or more over minutes; nullproc pays the
// same start-up cost, so the ratio leaves that out, while work the
// simulator's packages or the set-up add to start-up stays in it.
func timeSetup(wname string, seed int64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, fmt.Errorf("locating own binary: %w", err)
	}
	null := filepath.Join(filepath.Dir(exe), "perfbench-nullproc")
	samples := make([]float64, setupRepeats)
	for i := range samples {
		base, err := processCPU(exec.Command(null))
		if err != nil {
			return 0, fmt.Errorf("nullproc: %w", err)
		}
		if base <= 0 {
			return 0, fmt.Errorf("nullproc: no CPU time reported")
		}
		probe, err := processCPU(exec.Command(exe, "-setup-probe", "-workload", wname, "-seed", fmt.Sprint(seed)))
		if err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		samples[i] = probe.Seconds() / base.Seconds() * nullNominal
	}
	return median(samples), nil
}

// processCPU runs cmd to completion and returns its CPU time, user
// plus system.
func processCPU(cmd *exec.Cmd) (time.Duration, error) {
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return 0, err
	}
	return cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime(), nil
}

// execute runs the timed phase (and, for a traced run, the traced phase
// and the per-layer re-drives), then verifies every output.
func execute(ctx context.Context, job *job, cfg runConfig) (*report, error) {
	rep := &report{job: job, traced: cfg.traced, setup: cfg.setup}
	if !cfg.traced {
		its, err := timedPhase(ctx, job, cfg.seconds, nil)
		if err != nil {
			return nil, err
		}
		rep.peakRSS = peakRSSMB()
		rep.plain = its
	} else {
		// Half the time untraced, half traced: the difference of their
		// medians is the tracing overhead.
		half := cfg.seconds / 2
		its, err := timedPhase(ctx, job, half, nil)
		if err != nil {
			return nil, err
		}
		rep.plain = its
		rec := newRecorder()
		if rep.tracedIts, err = timedPhase(ctx, job, cfg.seconds-half, rec); err != nil {
			return nil, err
		}
		if rep.layers, err = driveLayers(ctx, job, rec); err != nil {
			return nil, err
		}
		rep.spans = rec
	}
	if err := job.verify(ctx, rep.allIterations()); err != nil {
		return nil, err
	}
	if cfg.traced {
		if err := rep.writeTrace(cfg.outDir); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// timedPhase repeats the workload's operation until d has elapsed (at
// least once) and returns every iteration. Calibration passes run
// before each segment of an iteration (experiment or halving
// generation) and once after the last; each iteration's normalized
// time uses the passes from its first through the one after its end.
func timedPhase(ctx context.Context, job *job, d time.Duration, rec *recorder) ([]iteration, error) {
	var its []iteration
	cal := &calibrator{}
	start := time.Now()
	for len(its) == 0 || time.Since(start) < d {
		// Each iteration starts from a collected heap, so its time and
		// the memory high-water mark do not depend on how much garbage
		// earlier iterations left behind.
		runtime.GC()
		it, err := job.iterate(ctx, rec, cal)
		if err != nil {
			return nil, err
		}
		its = append(its, it)
	}
	cal.sample() // closes the last iteration's final segment
	for i := range its {
		it := &its[i]
		to := it.calFrom + len(it.segs)
		it.norm = cal.normalize(it.cpu, it.calFrom, to)
		it.calib = median(cal.samples[it.calFrom : to+1])
	}
	return its, nil
}

// peakRSSMB is the process's resident-set high-water mark in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report gathers a finished run.
type report struct {
	job       *job
	traced    bool
	setup     float64
	peakRSS   float64
	plain     []iteration // untraced iterations
	tracedIts []iteration // traced iterations (traced runs only)
	layers    *layerReport
	spans     *recorder
}

func (r *report) allIterations() []iteration {
	return append(append([]iteration(nil), r.plain...), r.tracedIts...)
}

// endToEnd returns the untraced metrics. Times are normalized to the
// nominal host (see calib.go).
func (r *report) endToEnd() map[string]metric {
	t := medianNorm(r.plain)
	return map[string]metric{
		"norm_wall_s":     {t, "s"},
		"norm_refs_per_s": {float64(r.plain[0].refs) / t, "1/s"},
		"setup_s":         {r.setup, "s"},
		"peak_rss_mb":     {r.peakRSS, "MB"},
	}
}

// perLayer returns the traced run's metrics, and the bases of the
// shares it adds to the layer re-drive's: each experiment's and the
// search trace generation's share of the median traced iteration.
func (r *report) perLayer() (map[string]metric, []layerCount) {
	m := make(map[string]metric, len(r.layers.vals))
	for k, v := range r.layers.vals {
		m[k] = v
	}
	cpu := medianCPU(r.tracedIts)
	var shares []layerCount
	share := func(name string, sec float64, of string) {
		c := layerCount{name, sec, of, cpu, "median traced iteration CPU s"}
		m[name] = metric{c.value(), "ratio"}
		shares = append(shares, c)
	}
	for _, id := range allExperimentIDs() {
		share("experiments."+id+"_share", medianExperiment(r.tracedIts, id), "median "+id+" CPU s")
	}
	share("search.gen_share", r.layers.searchGenS, "search trace generation wall s")
	for k, v := range searchMetrics(r.tracedIts) {
		m[k] = v
	}
	m["bench.trace_overhead_s"] = metric{cpu - medianCPU(r.plain), "s"}
	return m, shares
}

func (r *report) print(w io.Writer) error {
	c := r.job.check
	var metrics map[string]metric
	if r.traced {
		metrics, _ = r.perLayer()
	} else {
		metrics = r.endToEnd()
	}
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "workload %s seed %d iterations %d (untraced) %d (traced) GOMAXPROCS %d\n",
		r.job.w.name, r.job.seed, len(r.plain), len(r.tracedIts), runtime.GOMAXPROCS(0))
	for _, it := range r.allIterations() {
		fmt.Fprintf(w, "iteration wall %.4fs cpu %.4fs normalized %.4fs calibration pass %.4fs\n",
			it.wall.Seconds(), it.cpu.Seconds(), it.norm, it.calib)
	}
	for _, k := range names {
		fmt.Fprintf(w, "%-36s %14.6g %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	fmt.Fprintf(w, "%-36s %14.6g %s (%d of %d outputs, reference: %s)\n",
		"fail_frac", c.failFrac(), "ratio", c.failed, c.attempted, c.source)
	if e, ok := r.job.paperEBErr(r.allIterations()); ok {
		fmt.Fprintf(w, "%-36s %14.6g %s\n", "paper_eb_err_pts", e, "pts")
	}
	for _, m := range c.mismatches {
		fmt.Fprintln(w, "MISMATCH", m)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{c.failed == 0 && c.attempted > 0, c.attempted, c.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// writeTrace writes the spans and the per-layer metrics with their base
// counts to <dir>/perfbench-trace-<workload>-seed<n>.json.
func (r *report) writeTrace(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	metrics, shares := r.perLayer()
	doc := struct {
		Workload string            `json:"workload"`
		Seed     int64             `json:"seed"`
		Metrics  map[string]metric `json:"metrics"`
		Counts   []layerCount      `json:"counts"`
		Spans    []span            `json:"spans"`
	}{r.job.w.name, r.job.seed, metrics, append(r.layers.counts, shares...), r.spans.spans}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("perfbench-trace-%s-seed%d.json", r.job.w.name, r.job.seed))
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianNorm(its []iteration) float64 {
	xs := make([]float64, len(its))
	for i, it := range its {
		xs[i] = it.norm
	}
	return median(xs)
}

func medianCPU(its []iteration) float64 {
	xs := make([]float64, len(its))
	for i, it := range its {
		xs[i] = it.cpu.Seconds()
	}
	return median(xs)
}
