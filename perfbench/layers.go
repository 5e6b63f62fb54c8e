package main

import (
	"context"
	"fmt"
	"time"

	"streamsim/internal/cache"
	"streamsim/internal/core"
	"streamsim/internal/filter"
	"streamsim/internal/mem"
	"streamsim/internal/memctl"
	"streamsim/internal/prefetch"
	"streamsim/internal/stream"
	"streamsim/internal/sweeprun"
	"streamsim/internal/timing"
	"streamsim/internal/trace"
	"streamsim/internal/workload"
)

// span is one traced interval, in seconds since the recorder started.
// Parent 0 is the root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
}

// recorder keeps spans in memory until the run writes them out. A nil
// recorder records nothing, so untraced code paths pass nil.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() float64 {
	if r == nil {
		return 0
	}
	return time.Since(r.t0).Seconds()
}

// begin opens a span and returns its id.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return 0
	}
	now := r.now()
	return r.add(span{Name: name, Parent: parent, Start: now, End: now})
}

// end closes the span id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	r.spans[id-1].End = r.now()
}

// add records a finished span and returns its id.
func (r *recorder) add(s span) int {
	if r == nil {
		return 0
	}
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	return s.ID
}

// layerCount is one per-layer quantity with its base: value = Num/Den
// for a ratio or a per-unit cost, Num alone for a count.
type layerCount struct {
	Metric string  `json:"metric"`
	Num    float64 `json:"num"`
	NumOf  string  `json:"num_of"`
	Den    float64 `json:"den,omitempty"`
	DenOf  string  `json:"den_of,omitempty"`
}

// layerReport is the outcome of driveLayers.
type layerReport struct {
	counts []layerCount
	vals   map[string]metric
	// searchGenS is the time generating the search trace takes
	// (design-search only).
	searchGenS float64
}

// ratio records Num/Den under name.
func (l *layerReport) ratio(name, unit string, num float64, numOf string, den float64, denOf string) {
	c := layerCount{name, num, numOf, den, denOf}
	l.vals[name] = metric{c.value(), unit}
	l.counts = append(l.counts, c)
}

// value is Num/Den, or 0 for an empty base.
func (c layerCount) value() float64 {
	if c.Den > 0 {
		return c.Num / c.Den
	}
	return 0
}

// count records an exact count or a plain quantity under name.
func (l *layerReport) count(name, unit string, n float64, of string) {
	l.vals[name] = metric{n, unit}
	l.counts = append(l.counts, layerCount{Metric: name, Num: n, NumOf: of})
}

// traceInput names one recorded trace a workload replays.
type traceInput struct {
	name, size string
}

// inputs lists the traces the workload replays: the fifteen paper
// benchmarks at their Table 1 input sizes for the experiment workloads,
// the one search trace for design-search.
func (j *job) inputs() []traceInput {
	if j.w.search {
		return []traceInput{{searchWorkload, searchSize}}
	}
	var in []traceInput
	for _, n := range workload.Names() {
		size := "small"
		switch n {
		case "appsp", "appbt", "applu":
			size = "large"
		}
		in = append(in, traceInput{n, size})
	}
	return in
}

// keepAlive absorbs results of timed loops whose output is otherwise
// unused, so the compiler cannot drop the work being timed.
var keepAlive uint64

// missEvent is one L1 miss-side event: a demand fill or a dirty
// write-back, the traffic everything below the L1 sees.
type missEvent struct {
	addr      mem.Addr
	writeBack bool
}

// driveLayers re-drives each simulator layer's public API on the inputs
// that layer sees in the workload and times it there: generation and
// encoding of the workload's traces, their decode, the L1s over the
// references, and each miss-side component over the L1 miss stream.
// Components are driven one at a time over their recorded input, so a
// layer's time is its own.
func driveLayers(ctx context.Context, j *job, rec *recorder) (*layerReport, error) {
	l := &layerReport{vals: map[string]metric{}}
	root := rec.begin("layers "+j.w.name, 0)
	defer rec.end(root)
	stores, err := j.recordInputs(ctx, rec, root, l)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	misses, dataMisses, err := driveReferences(rec, root, l, cfg, stores)
	if err != nil {
		return nil, err
	}
	if err := driveMissSide(rec, root, l, cfg.Geometry, misses, dataMisses); err != nil {
		return nil, err
	}
	if err := driveTaggedRPT(rec, root, l, cfg, stores); err != nil {
		return nil, err
	}
	if err := driveCore(ctx, rec, root, l, stores); err != nil {
		return nil, err
	}
	return l, nil
}

// recordInputs generates and encodes the workload's traces, then times
// their decode.
func (j *job) recordInputs(ctx context.Context, rec *recorder, root int, l *layerReport) ([]*trace.Store, error) {
	var stores []*trace.Store
	var genNs, refs, bytes float64
	for _, in := range j.inputs() {
		sp := rec.begin("workload.record "+in.name+"/"+in.size, root)
		t0 := time.Now()
		_, st, err := sweeprun.Record(ctx, in.name, in.size, j.p.scale)
		if err != nil {
			return nil, err
		}
		genNs += float64(time.Since(t0).Nanoseconds())
		rec.end(sp)
		stores = append(stores, st)
		refs += float64(st.Len())
		bytes += float64(st.Bytes())
	}
	l.ratio("workload.gen_ns_per_ref", "ns", genNs, "generate+encode ns", refs, "refs")
	l.count("workload.refs", "count", refs, "refs generated")
	l.ratio("trace.encode_bytes_per_ref", "B", bytes, "encoded bytes", refs, "refs")
	if j.w.search {
		l.searchGenS = genNs / 1e9
	}

	sp := rec.begin("trace.decode", root)
	packed := make([]uint64, trace.ReplayBatchLen)
	var decodeNs float64
	var sink uint64
	for _, st := range stores {
		t0 := time.Now()
		it := st.Iter()
		for n := it.NextPacked(packed); n > 0; n = it.NextPacked(packed) {
			sink += packed[n-1]
		}
		decodeNs += float64(time.Since(t0).Nanoseconds())
	}
	rec.end(sp)
	l.ratio("trace.decode_ns_per_ref", "ns", decodeNs, "NextPacked ns", refs, "refs")
	keepAlive += sink
	return stores, nil
}

// driveReferences times the L1s, the RPT and the timing model over every
// reference and returns the L1 miss stream and the L1D demand misses.
func driveReferences(rec *recorder, root int, l *layerReport, cfg core.Config, stores []*trace.Store) ([]missEvent, []mem.Access, error) {
	geom := cfg.Geometry
	var l1Ns, rptNs, timingNs, rptObs, l1Acc, l1Hits, timed float64
	var misses []missEvent
	var dataMisses []mem.Access
	sp := rec.begin("cache.l1+prefetch.rpt+timing", root)
	for _, st := range stores {
		l1i, err := cache.New(cfg.L1I)
		if err != nil {
			return nil, nil, err
		}
		l1d, err := cache.New(cfg.L1D)
		if err != nil {
			return nil, nil, err
		}
		rpt, err := prefetch.NewRPT(geom, 512, 4)
		if err != nil {
			return nil, nil, err
		}
		tm, err := timing.New(cfg, timing.DefaultLatencies())
		if err != nil {
			return nil, nil, err
		}
		buf := make([]mem.Access, trace.ReplayBatchLen)
		it := st.Iter()
		for n := it.Next(buf); n > 0; n = it.Next(buf) {
			b := buf[:n]
			t0 := time.Now()
			for i := range b {
				a := &b[i]
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
				if res.Hit || !res.Sampled {
					continue
				}
				if res.WroteBack {
					misses = append(misses, missEvent{geom.BlockToByte(mem.Addr(res.VictimBlock)), true})
				}
				if res.Filled {
					misses = append(misses, missEvent{addr: a.Addr})
					if c == l1d {
						dataMisses = append(dataMisses, *a)
					}
				}
			}
			t1 := time.Now()
			for i := range b {
				if b[i].Kind != mem.IFetch {
					rpt.Observe(b[i])
					rptObs++
				}
			}
			t2 := time.Now()
			tm.AccessBatch(b)
			t3 := time.Now()
			l1Ns += float64(t1.Sub(t0).Nanoseconds())
			rptNs += float64(t2.Sub(t1).Nanoseconds())
			timingNs += float64(t3.Sub(t2).Nanoseconds())
			timed += float64(n)
		}
		for _, c := range []*cache.Cache{l1i, l1d} {
			s := c.Stats()
			l1Acc += float64(s.Accesses)
			l1Hits += float64(s.Hits)
		}
	}
	rec.end(sp)
	l.ratio("cache.l1_ns_per_access", "ns", l1Ns, "L1 ns", l1Acc, "L1 accesses")
	l.ratio("cache.l1_hit_ratio", "ratio", l1Hits, "L1 hits", l1Acc, "L1 accesses")
	l.ratio("prefetch.rpt_ns_per_access", "ns", rptNs, "RPT.Observe ns", rptObs, "data references")
	l.ratio("timing.ns_per_access", "ns", timingNs, "timing.Model ns", timed, "references")
	return misses, dataMisses, nil
}

// driveMissSide times the L2, the stream set, both filters, OBL and the
// banked memory on the L1 miss stream. Each component sees what it sees
// in the memory system: the stream set probes fills (write-backs
// invalidate), the unit filter looks up stream misses, and the czone
// filter observes the references the unit filter rejects.
func driveMissSide(rec *recorder, root int, l *layerReport,
	geom mem.Geometry, misses []missEvent, dataMisses []mem.Access) error {
	sp := rec.begin("cache.l2", root)
	l2, err := cache.New(cache.Config{
		Name: "L2", SizeBytes: 256 << 10, Assoc: 4, BlockBytes: 64,
		Replacement: cache.LRU, Write: cache.WriteBack, Alloc: cache.WriteAllocate,
	})
	if err != nil {
		return err
	}
	t0 := time.Now()
	for _, ev := range misses {
		if ev.writeBack {
			l2.Write(uint64(ev.addr))
		} else {
			l2.Read(uint64(ev.addr))
		}
	}
	l.ratio("cache.l2_ns_per_access", "ns", float64(time.Since(t0).Nanoseconds()), "L2 ns", float64(len(misses)), "L1 miss events")
	rec.end(sp)

	sp = rec.begin("stream.probe", root)
	set, err := stream.NewSet(geom, stream.Config{Streams: 10, Depth: 2})
	if err != nil {
		return err
	}
	var streamMisses []mem.Addr
	t0 = time.Now()
	for _, ev := range misses {
		blk := geom.BlockAddr(ev.addr)
		if ev.writeBack {
			set.InvalidateBlock(blk)
			continue
		}
		if !set.Probe(blk) {
			set.AllocateUnit(blk)
			streamMisses = append(streamMisses, ev.addr)
		}
	}
	streamNs := float64(time.Since(t0).Nanoseconds())
	set.Finish()
	ss := set.Stats()
	rec.end(sp)
	l.ratio("stream.ns_per_probe", "ns", streamNs, "probe+allocate ns", float64(ss.Probes), "probes")
	l.ratio("stream.hit_ratio", "ratio", float64(ss.Hits), "stream hits", float64(ss.Probes), "probes")
	l.ratio("stream.useful_prefetch_ratio", "ratio", float64(ss.Hits), "prefetched blocks used", float64(ss.PrefetchesIssued), "prefetches issued")

	sp = rec.begin("filter.unit", root)
	uf, err := filter.NewUnitStride(16)
	if err != nil {
		return err
	}
	var rejected []mem.Addr
	t0 = time.Now()
	for _, a := range streamMisses {
		if !uf.Lookup(geom.BlockAddr(a)) {
			rejected = append(rejected, a)
		}
	}
	unitNs := float64(time.Since(t0).Nanoseconds())
	us := uf.Stats()
	rec.end(sp)
	l.ratio("filter.unit_ns_per_lookup", "ns", unitNs, "Lookup ns", float64(us.Lookups), "lookups")
	l.ratio("filter.unit_alloc_ratio", "ratio", float64(us.Hits), "streams allocated", float64(us.Lookups), "lookups")

	sp = rec.begin("filter.czone", root)
	nf, err := filter.NewNonUnitStride(16, 16)
	if err != nil {
		return err
	}
	t0 = time.Now()
	for _, a := range rejected {
		nf.Observe(geom.WordAddr(a))
	}
	czNs := float64(time.Since(t0).Nanoseconds())
	cs := nf.Stats()
	rec.end(sp)
	l.ratio("filter.czone_ns_per_observe", "ns", czNs, "Observe ns", float64(cs.Observations), "observations")
	l.ratio("filter.czone_alloc_ratio", "ratio", float64(cs.Allocations), "strides verified", float64(cs.Observations), "observations")

	sp = rec.begin("prefetch.obl", root)
	obl, err := prefetch.NewOBL(1)
	if err != nil {
		return err
	}
	var issued int
	t0 = time.Now()
	for _, a := range dataMisses {
		issued += len(obl.Miss(a, geom.BlockAddr(a.Addr)))
	}
	keepAlive += uint64(issued)
	l.ratio("prefetch.obl_ns_per_miss", "ns", float64(time.Since(t0).Nanoseconds()), "OBL.Miss ns", float64(len(dataMisses)), "L1D misses")
	rec.end(sp)

	sp = rec.begin("memctl.banks", root)
	banks, err := memctl.New(memctl.DefaultConfig())
	if err != nil {
		return err
	}
	now := uint64(0)
	t0 = time.Now()
	for _, ev := range misses {
		banks.Access(geom.BlockAddr(ev.addr), now)
		now += 4
	}
	l.ratio("memctl.ns_per_access", "ns", float64(time.Since(t0).Nanoseconds()), "Banks.Access ns", float64(len(misses)), "block transfers")
	rec.end(sp)
	return nil
}

// driveTaggedRPT measures how many of the RPT's prefetches are used: an
// L1D fed by the RPT's predictions, counting prefetched blocks that are
// referenced before eviction against prefetches issued.
func driveTaggedRPT(rec *recorder, root int, l *layerReport, cfg core.Config, stores []*trace.Store) error {
	sp := rec.begin("prefetch.rpt_useful", root)
	defer rec.end(sp)
	geom := cfg.Geometry
	var issued, used float64
	for _, st := range stores {
		l1d, err := cache.New(cfg.L1D)
		if err != nil {
			return err
		}
		rpt, err := prefetch.NewRPT(geom, 512, 4)
		if err != nil {
			return err
		}
		pending := map[mem.Addr]bool{}
		buf := make([]mem.Access, trace.ReplayBatchLen)
		it := st.Iter()
		for n := it.Next(buf); n > 0; n = it.Next(buf) {
			for _, a := range buf[:n] {
				if a.Kind == mem.IFetch {
					continue
				}
				blk := geom.BlockAddr(a.Addr)
				var res cache.Result
				if a.Kind == mem.Write {
					res = l1d.Write(uint64(a.Addr))
				} else {
					res = l1d.Read(uint64(a.Addr))
				}
				if res.Hit && pending[blk] {
					delete(pending, blk)
					used++
				}
				if res.Evicted {
					delete(pending, mem.Addr(res.VictimBlock))
				}
				if pb, ok := rpt.Observe(a); ok {
					pr := l1d.Prefetch(uint64(geom.BlockToByte(pb)))
					if pr.Filled {
						issued++
						pending[pb] = true
						if pr.Evicted {
							delete(pending, mem.Addr(pr.VictimBlock))
						}
					}
				}
			}
		}
	}
	l.ratio("prefetch.useful_ratio", "ratio", used, "RPT prefetches used", issued, "RPT prefetches issued")
	return nil
}

// fanoutConfigs are Figure 3's plain-stream systems (1-8 streams): one
// shared L1 front, eight stream back ends.
func fanoutConfigs() []core.Config {
	cfgs := make([]core.Config, 8)
	for i := range cfgs {
		c := core.DefaultConfig()
		c.Streams = stream.Config{Streams: i + 1, Depth: 2}
		c.UnitFilterEntries = 0
		c.Stride = core.NoStrideDetection
		cfgs[i] = c
	}
	return cfgs
}

// driveCore times the replay engine: one exact single-system replay of
// each trace through the paper's Section 7 system, one shared-front
// fan-out of Figure 3's configurations, and a checkpoint and restore
// of each replayed system.
func driveCore(ctx context.Context, rec *recorder, root int, l *layerReport, stores []*trace.Store) error {
	var oneNs, fanNs, refs, fanRefCfgs float64
	var ckUs, rsUs []float64
	for i, st := range stores {
		sys, err := core.New(core.DefaultConfig())
		if err != nil {
			return err
		}
		sp := rec.begin(fmt.Sprintf("core.replay trace%d", i), root)
		t0 := time.Now()
		if err := core.ReplayStore(ctx, sys, st); err != nil {
			return err
		}
		oneNs += float64(time.Since(t0).Nanoseconds())
		rec.end(sp)
		refs += float64(st.Len())

		t0 = time.Now()
		ck := sys.Checkpoint()
		ckUs = append(ckUs, float64(time.Since(t0).Nanoseconds())/1e3)
		t0 = time.Now()
		ck.Restore()
		rsUs = append(rsUs, float64(time.Since(t0).Nanoseconds())/1e3)

		cfgs := fanoutConfigs()
		systems := make([]*core.System, len(cfgs))
		for k, c := range cfgs {
			if systems[k], err = core.New(c); err != nil {
				return err
			}
		}
		sp = rec.begin(fmt.Sprintf("core.fanout trace%d x%d", i, len(systems)), root)
		t0 = time.Now()
		if err := core.ReplayStoreMultiPrefixFrom(ctx, systems, st, 0, st.WindowCount()); err != nil {
			return err
		}
		fanNs += float64(time.Since(t0).Nanoseconds())
		rec.end(sp)
		fanRefCfgs += float64(st.Len()) * float64(len(systems))
	}
	l.ratio("core.replay_ns_per_ref", "ns", oneNs, "ReplayStore ns", refs, "refs")
	l.ratio("core.fanout_ns_per_ref_config", "ns", fanNs, "fan-out ns", fanRefCfgs, "refs x configs")
	l.count("core.checkpoint_us", "us", median(ckUs), "median Checkpoint us over traces")
	l.count("core.restore_us", "us", median(rsUs), "median Restore us over traces")
	return nil
}
