// Command paperexp regenerates the paper's tables and figures.
//
// Usage:
//
//	paperexp -exp all            # every artefact, paper order
//	paperexp -exp fig3           # one artefact
//	paperexp -exp fig3,fig9      # several
//	paperexp -exp fig9 -plot     # figures as ASCII charts too
//	paperexp -exp table4 -scale 0.5
//	paperexp -exp table2 -format csv
//	paperexp -list
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"streamsim/internal/experiments"
	"streamsim/internal/profiling"
)

func main() {
	// Interrupts cancel the in-flight experiment within one replay
	// batch instead of killing the process mid-table.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "paperexp:", err)
		os.Exit(1)
	}
}

// run parses args and executes; separated from main for testing.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("paperexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp    = fs.String("exp", "all", "experiment id (see -list) or 'all'")
		scale  = fs.Float64("scale", 1.0, "workload iteration scale in (0, 1]")
		list   = fs.Bool("list", false, "list available experiments and exit")
		timed  = fs.Bool("time", false, "print per-experiment wall time")
		plotIt = fs.Bool("plot", false, "render figure experiments as ASCII charts too")
		format = fs.String("format", "text", "output format: text or csv")
		cpupr  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		mempr  = fs.String("memprofile", "", "write a heap profile to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stop, err := profiling.Start(*cpupr, *mempr)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stop(); err == nil {
			err = perr
		}
	}()
	if *format != "text" && *format != "csv" {
		return fmt.Errorf("unknown format %q (text or csv)", *format)
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "%-8s %s\n", e.ID, e.Paper)
		}
		return nil
	}

	opt := experiments.Options{Scale: *scale}
	var todo []experiments.Experiment
	if *exp == "all" {
		todo = experiments.All()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, err := experiments.Lookup(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			todo = append(todo, e)
		}
	}

	for i, e := range todo {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		start := time.Now()
		t, err := e.Run(ctx, opt)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if *format == "csv" {
			fmt.Fprint(stdout, t.CSV())
		} else {
			fmt.Fprint(stdout, t.Render())
		}
		if *plotIt {
			if chart, ok := experiments.ChartFor(e.ID, t); ok {
				fmt.Fprintln(stdout)
				fmt.Fprint(stdout, chart.Render())
			}
		}
		if *timed {
			fmt.Fprintf(stdout, "(%s in %v)\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
	}
	return nil
}
