// Command benchrun is the perf-regression harness: it runs the
// repository's Go benchmarks, parses the output (standard ns/op,
// B/op, allocs/op columns plus custom b.ReportMetric columns such as
// refs/s) into a machine-readable JSON report, and optionally gates
// against a committed baseline.
//
// Usage:
//
//	benchrun -out BENCH_after.json                  # run and record
//	benchrun -baseline BENCH_after.json             # run and gate
//	benchrun -baseline BENCH_after.json -update     # refresh baseline
//	benchrun -bench 'SystemThroughput' -count 5
//
// Gating rules, designed so the same baseline file works both on the
// machine that recorded it and on arbitrary CI runners:
//
//   - allocs/op: if the baseline says zero allocations, any allocation
//     fails, on every machine — allocation counts are deterministic.
//   - ns/op and custom metrics: compared only when the host CPU string
//     matches the baseline's (same-machine runs); a >tolerance
//     slowdown (or metric drop) fails. On a different CPU the timing
//     comparison is skipped and noted, because cross-machine ns/op
//     deltas measure the hardware, not the change.
//
// With -count > 1 the report keeps the best run per benchmark (lowest
// ns/op, highest metric values): minima are far more stable than means
// on shared machines.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// Report is the BENCH_*.json schema.
type Report struct {
	GOOS       string                `json:"goos"`
	GOARCH     string                `json:"goarch"`
	CPU        string                `json:"cpu"`
	Benchmarks map[string]*BenchStat `json:"benchmarks"`
}

// BenchStat is one benchmark's result.
type BenchStat struct {
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Metrics holds custom b.ReportMetric columns (e.g. "refs/s"),
	// assumed higher-is-better when gating.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchrun:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench     = fs.String("bench", "SystemThroughput|TraceReplay|ReplayMulti|ReplayIntra|Halving", "benchmark regexp passed to go test -bench")
		benchtime = fs.String("benchtime", "1s", "go test -benchtime value (e.g. 2s, 100x)")
		count     = fs.Int("count", 1, "runs per benchmark; the best is kept")
		pkg       = fs.String("pkg", ".", "package containing the benchmarks")
		out       = fs.String("out", "", "write the JSON report to this file")
		baseline  = fs.String("baseline", "", "gate against this baseline JSON")
		update    = fs.Bool("update", false, "rewrite -baseline with this run's results")
		tolerance = fs.Float64("tolerance", 20, "allowed same-machine regression, percent")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *update && *baseline == "" {
		return fmt.Errorf("-update requires -baseline")
	}

	cmd := exec.Command("go", "test", "-run=^$",
		"-bench="+*bench, "-benchmem",
		"-benchtime="+*benchtime,
		"-count="+strconv.Itoa(*count), *pkg)
	cmd.Stderr = stderr
	raw, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go test -bench: %w", err)
	}
	rep, err := parseBenchOutput(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	if len(rep.Benchmarks) == 0 {
		return fmt.Errorf("no benchmarks matched %q", *bench)
	}

	if err := writeReport(stdout, rep); err != nil {
		return err
	}
	if *out != "" {
		if err := writeReportFile(*out, rep); err != nil {
			return err
		}
	}
	if *baseline != "" {
		if *update {
			fmt.Fprintf(stdout, "updating baseline %s\n", *baseline)
			return writeReportFile(*baseline, rep)
		}
		base, err := readReport(*baseline)
		if err != nil {
			return err
		}
		problems, notes := compare(base, rep, *tolerance/100)
		for _, n := range notes {
			fmt.Fprintln(stdout, "note:", n)
		}
		if len(problems) > 0 {
			for _, p := range problems {
				fmt.Fprintln(stdout, "FAIL:", p)
			}
			return fmt.Errorf("%d benchmark regression(s) vs %s", len(problems), *baseline)
		}
		fmt.Fprintf(stdout, "ok: no regressions vs %s\n", *baseline)
	}
	return nil
}

// parseBenchOutput reads `go test -bench -benchmem` output. Benchmark
// lines look like
//
//	BenchmarkSystemThroughput-4  1000  21.10 ns/op  47401659 refs/s  0 B/op  0 allocs/op
//
// with a `cpu: ...` header. The -N GOMAXPROCS suffix is stripped so
// reports from machines with different core counts stay comparable.
func parseBenchOutput(r io.Reader) (*Report, error) {
	rep := &Report{Benchmarks: map[string]*BenchStat{}}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			rep.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 || len(f)%2 != 0 {
			continue
		}
		name := strings.TrimPrefix(f[0], "Benchmark")
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		iters, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue
		}
		st := &BenchStat{Iterations: iters}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad benchmark value %q in %q", f[i], line)
			}
			switch unit := f[i+1]; unit {
			case "ns/op":
				st.NsPerOp = v
			case "B/op":
				st.BytesPerOp = v
			case "allocs/op":
				st.AllocsPerOp = v
			default:
				if st.Metrics == nil {
					st.Metrics = map[string]float64{}
				}
				st.Metrics[unit] = v
			}
		}
		rep.Benchmarks[name] = merge(rep.Benchmarks[name], st)
	}
	return rep, sc.Err()
}

// merge keeps the best of two runs of one benchmark: lowest ns/op and
// allocations, highest custom metrics.
func merge(old, cur *BenchStat) *BenchStat {
	if old == nil {
		return cur
	}
	if cur.NsPerOp < old.NsPerOp {
		old.NsPerOp = cur.NsPerOp
		old.Iterations = cur.Iterations
	}
	if cur.BytesPerOp < old.BytesPerOp {
		old.BytesPerOp = cur.BytesPerOp
	}
	if cur.AllocsPerOp < old.AllocsPerOp {
		old.AllocsPerOp = cur.AllocsPerOp
	}
	for k, v := range cur.Metrics {
		if v > old.Metrics[k] {
			if old.Metrics == nil {
				old.Metrics = map[string]float64{}
			}
			old.Metrics[k] = v
		}
	}
	return old
}

// minSampleNs is the least total sampled time (ns/op × iterations)
// for which ns/op is trusted: below about a millisecond the figure is
// timer overhead, not the benchmark. This is what makes a
// `-benchtime 1x` smoke run safe — a one-iteration sample of a
// nanosecond-scale benchmark skips the timing gate (with a note)
// instead of failing on noise, while a one-iteration sample of a
// whole-trace replay is still several milliseconds and gates normally.
const minSampleNs = 1e6

// compare gates cur against base and returns hard failures plus
// informational notes. tol is fractional (0.2 = 20%).
func compare(base, cur *Report, tol float64) (problems, notes []string) {
	sameCPU := base.CPU != "" && base.CPU == cur.CPU
	if !sameCPU {
		notes = append(notes, fmt.Sprintf(
			"cpu %q differs from baseline %q: timing gates skipped, allocation gates still apply",
			cur.CPU, base.CPU))
	}
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := base.Benchmarks[name]
		c, ok := cur.Benchmarks[name]
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: in baseline but not in this run", name))
			continue
		}
		// Allocation counts are deterministic, so this gate holds on
		// any machine; a zero-alloc baseline is a hard invariant.
		if b.AllocsPerOp == 0 && c.AllocsPerOp > 0 {
			problems = append(problems, fmt.Sprintf(
				"%s: %v allocs/op, baseline is allocation-free", name, c.AllocsPerOp))
		}
		if !sameCPU {
			continue
		}
		if c.NsPerOp*float64(c.Iterations) < minSampleNs {
			notes = append(notes, fmt.Sprintf(
				"%s: sample too short to time reliably, timing gate skipped (raise -benchtime)", name))
			continue
		}
		if b.NsPerOp > 0 && c.NsPerOp > b.NsPerOp*(1+tol) {
			problems = append(problems, fmt.Sprintf(
				"%s: %.4g ns/op is %.0f%% over baseline %.4g",
				name, c.NsPerOp, (c.NsPerOp/b.NsPerOp-1)*100, b.NsPerOp))
		}
		for unit, bv := range b.Metrics {
			if cv, ok := c.Metrics[unit]; ok && bv > 0 && cv < bv*(1-tol) {
				problems = append(problems, fmt.Sprintf(
					"%s: %.4g %s is %.0f%% under baseline %.4g",
					name, cv, unit, (1-cv/bv)*100, bv))
			}
		}
	}
	return problems, notes
}

func writeReport(w io.Writer, rep *Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func writeReportFile(path string, rep *Report) error {
	var buf bytes.Buffer
	if err := writeReport(&buf, rep); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func readReport(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &Report{}
	if err := json.Unmarshal(raw, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}
