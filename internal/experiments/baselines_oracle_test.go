package experiments

import (
	"context"
	"testing"

	"streamsim/internal/cache"
	"streamsim/internal/mem"
	"streamsim/internal/prefetch"
	"streamsim/internal/trace"
	"streamsim/internal/workload"
)

// runOnChipPrefetcher is the oracle for the prefetch.OnChip harnesses
// extbase runs: the original per-reference harness, which tracks prefetched-but-untouched blocks
// in one map shared by both L1s instead of a per-line mark in each.
// The two agree exactly while the instruction and data block sets are
// disjoint, as they are in every workload.
func runOnChipPrefetcher(t *testing.T, tr *recorded, p prefetch.Prefetcher, rpt *prefetch.RPT) prefetch.OnChipStats {
	t.Helper()
	cfg := noStreams()
	l1i, err := cache.New(cfg.L1I)
	if err != nil {
		t.Fatal(err)
	}
	l1d, err := cache.New(cfg.L1D)
	if err != nil {
		t.Fatal(err)
	}
	geom := cfg.Geometry

	pending := map[mem.Addr]bool{}
	var st prefetch.OnChipStats
	install := func(c *cache.Cache, blocks []mem.Addr) {
		for _, b := range blocks {
			res := c.Prefetch(uint64(geom.BlockToByte(b)))
			if !res.Filled {
				continue
			}
			st.Issued++
			pending[b] = true
			if res.Evicted {
				if victim := mem.Addr(res.VictimBlock); pending[victim] {
					// A prefetched block died untouched.
					delete(pending, victim)
					st.Wasted++
				}
			}
		}
	}

	buf := make([]mem.Access, trace.ReplayBatchLen)
	it := tr.store.Iter()
	for n := it.Next(buf); n > 0; n = it.Next(buf) {
		for _, a := range buf[:n] {
			c := l1d
			if a.Kind == mem.IFetch {
				c = l1i
			}
			var res cache.Result
			if a.Kind == mem.Write {
				res = c.Write(uint64(a.Addr))
			} else {
				res = c.Read(uint64(a.Addr))
			}
			blk := geom.BlockAddr(a.Addr)
			if res.Hit && pending[blk] {
				delete(pending, blk)
				install(c, p.FirstUse(a, blk))
			}
			if res.Sampled && !res.Hit && res.Filled {
				st.Misses++
				if res.Evicted {
					if victim := mem.Addr(res.VictimBlock); pending[victim] {
						delete(pending, victim)
						st.Wasted++
					}
				}
				install(c, p.Miss(a, blk))
			}
			if rpt != nil {
				if pb, ok := rpt.Observe(a); ok {
					install(c, []mem.Addr{pb})
				}
			}
		}
	}
	st.Wasted += uint64(len(pending)) // still untouched at end
	return st
}

// TestOnChipMatchesMapOracle checks the batched on-chip prefetcher
// replay against the map-based oracle on every workload, for both
// baselines extbase reports: miss, issued and wasted counts, and the
// coverage and extra-traffic percentages derived from them.
func TestOnChipMatchesMapOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("replays fifteen workloads")
	}
	ctx := context.Background()
	const scale = 0.01
	geom := mem.DefaultGeometry()
	for _, name := range workload.Names() {
		size := table1Size(name)
		tr, err := record(ctx, name, size, scale)
		if err != nil {
			t.Fatal(err)
		}
		base, err := missStream(ctx, name, size, scale)
		if err != nil {
			t.Fatal(err)
		}
		obl, rpt, err := baselineHarnesses()
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.onChip(ctx, obl, rpt); err != nil {
			t.Fatal(err)
		}
		oblP, err := prefetch.NewOBL(1)
		if err != nil {
			t.Fatal(err)
		}
		rptP, err := prefetch.NewRPT(geom, 512, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			kind string
			got  prefetch.OnChipStats
			want prefetch.OnChipStats
		}{
			{"OBL", obl.Finish(), runOnChipPrefetcher(t, tr, oblP, nil)},
			{"RPT", rpt.Finish(), runOnChipPrefetcher(t, tr, rptP, rptP)},
		} {
			if c.got != c.want {
				t.Errorf("%s %s: stats %+v, oracle %+v", name, c.kind, c.got, c.want)
			}
			if g, w := baselineOf(base.fills(), c.got), baselineOf(base.fills(), c.want); g != w {
				t.Errorf("%s %s: result %+v, oracle %+v", name, c.kind, g, w)
			}
			if c.got.Issued == 0 {
				t.Errorf("%s %s: no prefetches issued; the comparison is vacuous", name, c.kind)
			}
		}
	}
}

// missStreamOracle is the scalar derivation missStream replaced: every
// reference through standalone L1 caches, recording fills and
// write-backs as they happen.
func missStreamOracle(t *testing.T, tr *recorded) []l2Event {
	t.Helper()
	cfg := noStreams()
	l1i, err := cache.New(cfg.L1I)
	if err != nil {
		t.Fatal(err)
	}
	l1d, err := cache.New(cfg.L1D)
	if err != nil {
		t.Fatal(err)
	}
	geom := cfg.Geometry
	var events []l2Event
	buf := make([]mem.Access, trace.ReplayBatchLen)
	it := tr.store.Iter()
	for n := it.Next(buf); n > 0; n = it.Next(buf) {
		for _, a := range buf[:n] {
			c := l1d
			if a.Kind == mem.IFetch {
				c = l1i
			}
			var res cache.Result
			if a.Kind == mem.Write {
				res = c.Write(uint64(a.Addr))
			} else {
				res = c.Read(uint64(a.Addr))
			}
			if !res.Sampled || res.Hit {
				continue
			}
			if res.WroteBack {
				events = append(events, l2Event{addr: geom.BlockToByte(mem.Addr(res.VictimBlock)), write: true})
			}
			if res.Filled {
				events = append(events, l2Event{addr: geom.BlockBase(a.Addr)})
			}
		}
	}
	return events
}

// TestMissStreamMatchesScalarOracle checks the tapped bare-L1 pass
// yields exactly the scalar walk's miss events on every workload.
func TestMissStreamMatchesScalarOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("replays fifteen workloads")
	}
	ctx := context.Background()
	const scale = 0.01
	for _, name := range workload.Names() {
		size := table1Size(name)
		tr, err := record(ctx, name, size, scale)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := missStream(ctx, name, size, scale)
		if err != nil {
			t.Fatal(err)
		}
		want := missStreamOracle(t, tr)
		if len(ms.events) != len(want) {
			t.Fatalf("%s: %d miss events, oracle %d", name, len(ms.events), len(want))
		}
		for i := range want {
			if ms.events[i] != want[i] {
				t.Fatalf("%s: event %d = %+v, oracle %+v", name, i, ms.events[i], want[i])
			}
		}
	}
}
