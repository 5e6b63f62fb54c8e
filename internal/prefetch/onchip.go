package prefetch

import (
	"streamsim/internal/cache"
	"streamsim/internal/mem"
)

// OnChipStats counts what an on-chip prefetcher did to the L1s.
type OnChipStats struct {
	// Misses counts demand misses that filled an L1.
	Misses uint64
	// Issued counts prefetches that filled a line.
	Issued uint64
	// Wasted counts prefetched lines evicted before any demand
	// reference touched them; Finish adds the lines still untouched.
	Wasted uint64
}

// OnChip is the harness for the on-chip prefetcher baselines: split
// L1s that a prefetcher fills directly. Every demand miss and every
// first use of a prefetched line (the cache's prefetched mark, see
// cache.Cache.ClaimPrefetched) is reported to the Prefetcher, and an
// RPT, when given, additionally observes every data reference, as it
// would beside the load/store unit.
type OnChip struct {
	l1i, l1d *cache.Cache
	geom     mem.Geometry
	p        Prefetcher
	rpt      *RPT
	stats    OnChipStats
}

// NewOnChip builds the harness over fresh L1s. rpt may be nil; when it
// is set, the accesses given to AccessBatch must carry their PCs.
func NewOnChip(geom mem.Geometry, l1i, l1d cache.Config, p Prefetcher, rpt *RPT) (*OnChip, error) {
	ci, err := cache.New(l1i)
	if err != nil {
		return nil, err
	}
	cd, err := cache.New(l1d)
	if err != nil {
		return nil, err
	}
	return &OnChip{l1i: ci, l1d: cd, geom: geom, p: p, rpt: rpt}, nil
}

// AccessBatch presents a batch of references in order.
//
//simlint:hotpath
//simlint:borrowed accs
func (o *OnChip) AccessBatch(accs []mem.Access) {
	// Stack-resident probe snapshots keep the geometry loads out of the
	// loop (see cache.Prober).
	pd, pi := o.l1d.Prober(), o.l1i.Prober()
	for i := range accs {
		a := &accs[i]
		c, p, write := o.l1d, &pd, a.Kind == mem.Write
		if a.Kind == mem.IFetch {
			c, p = o.l1i, &pi
		}
		switch way, st := p.Probe(uint64(a.Addr)); st {
		case cache.ProbeHit:
			first := c.ClaimPrefetched(way)
			c.HitAt(way, write)
			if first {
				o.install(c, o.p.FirstUse(*a, o.geom.BlockAddr(a.Addr)))
			}
		case cache.ProbeMiss:
			res := c.MissAt(uint64(a.Addr), write)
			if res.Filled {
				o.stats.Misses++
				if res.EvictedPrefetched {
					o.stats.Wasted++
				}
				o.install(c, o.p.Miss(*a, o.geom.BlockAddr(a.Addr)))
			}
		default:
			c.NoteUnsampled()
		}
		if o.rpt != nil {
			if pb, ok := o.rpt.Observe(*a); ok {
				o.prefetch(c, pb)
			}
		}
	}
}

// install prefetches blocks into c.
//
//simlint:hotpath
//simlint:borrowed blocks
func (o *OnChip) install(c *cache.Cache, blocks []mem.Addr) {
	for _, b := range blocks {
		o.prefetch(c, b)
	}
}

// prefetch fills block b into c unless it is resident, counting the
// fill and any untouched prefetch it displaces.
//
//simlint:hotpath
func (o *OnChip) prefetch(c *cache.Cache, b mem.Addr) {
	res := c.Prefetch(uint64(o.geom.BlockToByte(b)))
	if !res.Filled {
		return
	}
	o.stats.Issued++
	if res.EvictedPrefetched {
		o.stats.Wasted++
	}
}

// Finish returns the counts, with the prefetched lines still untouched
// at the end of the run counted as wasted.
func (o *OnChip) Finish() OnChipStats {
	s := o.stats
	s.Wasted += o.l1i.UntouchedPrefetches() + o.l1d.UntouchedPrefetches()
	return s
}
