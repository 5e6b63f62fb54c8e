// Extension experiment: the Section 2 related-work prefetchers as
// baselines. The paper argues stream buffers are the right choice for
// commodity-processor systems because PC-indexed schemes (Baer-Chen's
// RPT) require modifying the processor; this experiment quantifies the
// comparison: miss coverage and extra memory traffic for tagged OBL,
// the RPT, and the paper's filtered stream buffers.
package experiments

import (
	"context"

	"streamsim/internal/mem"
	"streamsim/internal/prefetch"
	"streamsim/internal/tab"
	"streamsim/internal/trace"
	"streamsim/internal/workload"
)

// baselineResult summarizes one prefetcher run.
type baselineResult struct {
	// Coverage is the fraction of baseline misses eliminated (%).
	Coverage float64
	// Extra is wasted prefetch traffic relative to baseline misses (%).
	Extra float64
}

// baselineOf derives the table's percentages from an on-chip run
// against the no-prefetch miss count.
func baselineOf(baseMisses uint64, st prefetch.OnChipStats) baselineResult {
	out := baselineResult{}
	if baseMisses > 0 {
		out.Coverage = 100 * float64(int64(baseMisses)-int64(st.Misses)) / float64(baseMisses)
		out.Extra = 100 * float64(st.Wasted) / float64(baseMisses)
	}
	return out
}

// onChip replays the trace once through every on-chip prefetcher
// harness (prefetch.OnChip), decoding each batch once — with its PCs,
// which an RPT harness reads — for all of them.
func (r *recorded) onChip(ctx context.Context, harnesses ...*prefetch.OnChip) error {
	done := ctx.Done()
	buf := make([]mem.Access, trace.ReplayBatchLen)
	it := r.store.Iter()
	for n := it.Next(buf); n > 0; n = it.Next(buf) {
		for _, oc := range harnesses {
			oc.AccessBatch(buf[:n])
		}
		select {
		case <-done:
			return ctx.Err()
		default:
		}
	}
	replayedRefs.Add(uint64(r.store.Len()) * uint64(len(harnesses)))
	return nil
}

// baselineHarnesses builds the two on-chip baselines over the paper's
// L1s: tagged OBL of degree one, and a 512-entry 4-way RPT.
func baselineHarnesses() (obl, rpt *prefetch.OnChip, err error) {
	cfg := noStreams()
	o, err := prefetch.NewOBL(1)
	if err != nil {
		return nil, nil, err
	}
	if obl, err = prefetch.NewOnChip(cfg.Geometry, cfg.L1I, cfg.L1D, o, nil); err != nil {
		return nil, nil, err
	}
	r, err := prefetch.NewRPT(cfg.Geometry, 512, 4)
	if err != nil {
		return nil, nil, err
	}
	if rpt, err = prefetch.NewOnChip(cfg.Geometry, cfg.L1I, cfg.L1D, r, r); err != nil {
		return nil, nil, err
	}
	return obl, rpt, nil
}

// Baselines compares tagged OBL and the Baer-Chen RPT against the
// paper's filtered stream buffers. Registered as "extbase".
func Baselines(ctx context.Context, opt Options) (*tab.Table, error) {
	opt = opt.withDefaults()
	t := &tab.Table{
		Title: "Extension: stream buffers vs Section 2 prefetchers (miss coverage %, extra traffic %)",
		Columns: []string{
			"benchmark", "streams cov", "streams extra",
			"OBL cov", "OBL extra", "RPT cov", "RPT extra",
		},
		Notes: []string{
			"coverage = % of no-prefetch misses eliminated (stream hit rate for streams);",
			"extra = wasted prefetched blocks / baseline misses; RPT sees load/store PCs",
			"(requires processor modification, the paper's argument for streams)",
		},
	}
	for _, name := range workload.Names() {
		size := table1Size(name)
		sres, err := runConfig(ctx, name, size, opt, stridedStreams(16))
		if err != nil {
			return nil, err
		}
		tr, err := record(ctx, name, size, opt.Scale)
		if err != nil {
			return nil, err
		}
		base, err := missStream(ctx, name, size, opt.Scale) // baseline misses (no prefetch)
		if err != nil {
			return nil, err
		}
		obl, rpt, err := baselineHarnesses()
		if err != nil {
			return nil, err
		}
		if err := tr.onChip(ctx, obl, rpt); err != nil {
			return nil, err
		}
		oblRes := baselineOf(base.fills(), obl.Finish())
		rptRes := baselineOf(base.fills(), rpt.Finish())
		t.AddRow(name,
			tab.F(sres.StreamHitRate()), tab.F(sres.ExtraBandwidth()),
			tab.F(oblRes.Coverage), tab.F(oblRes.Extra),
			tab.F(rptRes.Coverage), tab.F(rptRes.Extra))
	}
	return t, nil
}
