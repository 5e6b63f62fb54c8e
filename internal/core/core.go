// Package core assembles the paper's memory system: split on-chip L1
// instruction and data caches backed *only* by a set of stream buffers
// and main memory (Figure 1). References flow L1 → streams → memory;
// stream misses use the fast path directly to memory; write-backs
// bypass the streams and invalidate stale stream copies.
//
// The package wires together the cache, stream and filter models and
// keeps the bandwidth ledger from which the paper's metrics — stream
// hit rate, extra bandwidth (EB), stream-length distribution — are
// derived. It is the simulator the paper's Section 4 describes, minus
// the Shade front end (see internal/workload for the trace source).
package core

import (
	"fmt"

	"streamsim/internal/cache"
	"streamsim/internal/filter"
	"streamsim/internal/mem"
	"streamsim/internal/stats"
	"streamsim/internal/stream"
	"streamsim/internal/victim"
)

// StrideScheme selects the non-unit-stride detection hardware.
type StrideScheme uint8

// Available stride-detection schemes.
const (
	// NoStrideDetection disables non-unit-stride streams.
	NoStrideDetection StrideScheme = iota
	// CzoneScheme is the Section 7 partition scheme (the paper's
	// preferred design).
	CzoneScheme
	// MinDeltaScheme is the Section 7 alternative kept for comparison.
	MinDeltaScheme
)

// String names the scheme.
func (s StrideScheme) String() string {
	switch s {
	case NoStrideDetection:
		return "none"
	case CzoneScheme:
		return "czone"
	case MinDeltaScheme:
		return "min-delta"
	default:
		return fmt.Sprintf("StrideScheme(%d)", uint8(s))
	}
}

// Config describes a complete memory system. DefaultConfig returns the
// paper's baseline; zero values elsewhere mean "disabled".
type Config struct {
	// Geometry fixes word and block sizes (default 4/64 bytes).
	Geometry mem.Geometry

	// L1I and L1D configure the on-chip caches. The paper uses
	// 64 KB 4-way with random replacement for both; the data cache is
	// write-back, write-allocate.
	L1I cache.Config
	L1D cache.Config

	// Streams configures the stream buffer set. Streams.Streams == 0
	// disables stream buffers entirely (L1 + memory only).
	Streams stream.Config

	// PartitionedStreams gives instruction and data misses separate
	// stream sets (each of Streams.Streams buffers), as the MacroTek
	// PowerPC memory controller does. The paper found partitioning
	// unhelpful — the large on-chip I cache leaves too few instruction
	// misses — and uses unified streams; the ablation benches verify.
	PartitionedStreams bool

	// VictimEntries adds a Jouppi victim cache of this many fully-
	// associative entries behind each L1. The paper's 4-way L1s don't
	// need one ("in a direct-mapped cache, Jouppi's victim buffers may
	// also be needed"); direct-mapped configurations do.
	VictimEntries int

	// UnitFilterEntries enables the Section 6 unit-stride filter when
	// > 0 (the paper uses 16 entries for its filtered results).
	UnitFilterEntries int

	// Stride selects the non-unit-stride scheme; it observes only
	// references that the unit-stride filter rejects (or, with the
	// unit filter disabled, every stream miss).
	Stride StrideScheme
	// StrideFilterEntries sizes the czone or min-delta history
	// (16 in the paper).
	StrideFilterEntries int
	// CzoneBits sets the czone size in word-address bits (Figure 9
	// sweeps 10-26).
	CzoneBits uint
	// MinDeltaMax bounds accepted min-delta strides in words
	// (0 = unbounded).
	MinDeltaMax int64

	// OnMemoryTraffic, when set, observes every block the system moves
	// over the memory interface on the demand side — fast-path fetches
	// and write-backs. Prefetch traffic is observed via
	// Streams.OnPrefetch; together they are the full traffic sequence
	// bank-interleaving analyses replay (see internal/memctl).
	OnMemoryTraffic func(blk mem.Addr)
}

// DefaultConfig is the paper's baseline: 64K+64K 4-way random-
// replacement L1s, ten streams of depth two, both filters at sixteen
// entries, czone of sixteen bits.
func DefaultConfig() Config {
	return Config{
		Geometry: mem.DefaultGeometry(),
		L1I: cache.Config{
			Name: "L1I", SizeBytes: 64 << 10, Assoc: 4, BlockBytes: 64,
			Replacement: cache.Random, Write: cache.WriteBack, Alloc: cache.WriteAllocate,
			Seed: 1,
		},
		L1D: cache.Config{
			Name: "L1D", SizeBytes: 64 << 10, Assoc: 4, BlockBytes: 64,
			Replacement: cache.Random, Write: cache.WriteBack, Alloc: cache.WriteAllocate,
			Seed: 2,
		},
		Streams:             stream.Config{Streams: 10, Depth: 2},
		UnitFilterEntries:   16,
		Stride:              CzoneScheme,
		StrideFilterEntries: 16,
		CzoneBits:           16,
	}
}

// System is a running memory system. It is not safe for concurrent use.
//
// tap and tapRef are exempt from snapshot coverage everywhere: they
// are a wiring hook and its per-batch cursor, and the replay engine
// never shards or checkpoints a hook-carrying system. bw is exempt in
// adopt only — an adopter keeps its own traffic ledger while taking
// the front end.
//
//simlint:state
//simlint:statederived tap
//simlint:statederived tapRef
//simlint:statederived bw adopt
type System struct {
	cfg      Config
	geom     mem.Geometry
	l1i      *cache.Cache
	l1d      *cache.Cache
	victimI  *victim.Cache
	victimD  *victim.Cache
	streams  *stream.Set // unified, or the data set when partitioned
	streamsI *stream.Set // instruction set when partitioned
	uf       *filter.UnitStride
	nf       *filter.NonUnitStride
	md       *filter.MinDelta

	instructions uint64
	finished     bool
	bw           Bandwidth
	out          Outcome // scratch for AccessOutcome

	// tap, when non-nil, records every backend event missVia generates
	// (L1 miss fills, write-backs and no-write-allocate stores). The
	// multi-config replay engine enables it on one leader system when
	// every system in a fan-out shares the same L1 front end: the
	// followers then replay only the tapped events through their
	// stream-side state instead of re-simulating an identical L1 (see
	// applyTap). tapRef is the batch index AccessPacked is on, stamped
	// into each event.
	tap    []TapEvent
	tapRef uint32
}

// TapEvent is one backend event of a shared-front replay: what an L1
// miss sends past the on-chip caches. A reference that misses produces
// one or two events, in order: a write-back of the dirty victim, then
// the fill (or, for a no-write-allocate store, the store itself).
type TapEvent struct {
	// Addr is the referenced byte address, or for a write-back the
	// displaced block's number.
	Addr uint64
	// Ref is the index, within the batch AccessPacked was given, of the
	// reference that caused the event.
	Ref uint32
	// Kind is a set of Tap* flags; an event with neither TapWriteBack
	// nor TapStoreThrough is a fill.
	Kind uint8
}

// TapEvent.Kind flags.
const (
	// TapWriteBack: a dirty L1 victim went to memory.
	TapWriteBack uint8 = 1 << iota
	// TapStoreThrough: a no-write-allocate store miss went to memory
	// without filling the L1.
	TapStoreThrough
	// TapIFetch: the reference was an instruction fetch.
	TapIFetch
	// TapWrite: the reference was a store.
	TapWrite
)

// Bandwidth is the block-traffic ledger. All counts are in cache
// blocks moved between the chip and main memory.
//
//simlint:state counters
type Bandwidth struct {
	// DemandFetches counts blocks fetched over the fast path (stream
	// misses, and every fill when streams are disabled).
	DemandFetches uint64
	// StreamFills counts blocks delivered to L1 from the streams.
	StreamFills uint64
	// VictimFills counts blocks recovered from a victim cache (no
	// off-chip traffic).
	VictimFills uint64
	// WriteBacks counts dirty blocks written to memory.
	WriteBacks uint64
}

// New builds a System from cfg. Geometry defaults to the paper's; the
// L1 block sizes must agree with the geometry's block size.
func New(cfg Config) (*System, error) {
	if cfg.Geometry == (mem.Geometry{}) {
		cfg.Geometry = mem.DefaultGeometry()
	}
	if cfg.L1I.BlockBytes != cfg.Geometry.BlockBytes() || cfg.L1D.BlockBytes != cfg.Geometry.BlockBytes() {
		return nil, fmt.Errorf("core: L1 block sizes (%d, %d) must match geometry block size %d",
			cfg.L1I.BlockBytes, cfg.L1D.BlockBytes, cfg.Geometry.BlockBytes())
	}
	s := &System{cfg: cfg, geom: cfg.Geometry}
	var err error
	if s.l1i, err = cache.New(cfg.L1I); err != nil {
		return nil, err
	}
	if s.l1d, err = cache.New(cfg.L1D); err != nil {
		return nil, err
	}
	if cfg.Streams.Streams > 0 {
		if s.streams, err = stream.NewSet(cfg.Geometry, cfg.Streams); err != nil {
			return nil, err
		}
		if cfg.PartitionedStreams {
			if s.streamsI, err = stream.NewSet(cfg.Geometry, cfg.Streams); err != nil {
				return nil, err
			}
		}
	} else if cfg.PartitionedStreams {
		return nil, fmt.Errorf("core: partitioned streams configured without streams")
	}
	if cfg.VictimEntries > 0 {
		if s.victimI, err = victim.New(cfg.VictimEntries); err != nil {
			return nil, err
		}
		if s.victimD, err = victim.New(cfg.VictimEntries); err != nil {
			return nil, err
		}
	} else if cfg.VictimEntries < 0 {
		return nil, fmt.Errorf("core: negative victim cache size %d", cfg.VictimEntries)
	}
	if cfg.UnitFilterEntries > 0 {
		if s.streams == nil {
			return nil, fmt.Errorf("core: unit-stride filter configured without streams")
		}
		if s.uf, err = filter.NewUnitStride(cfg.UnitFilterEntries); err != nil {
			return nil, err
		}
	}
	switch cfg.Stride {
	case NoStrideDetection:
	case CzoneScheme:
		if s.streams == nil {
			return nil, fmt.Errorf("core: stride detection configured without streams")
		}
		if s.nf, err = filter.NewNonUnitStride(cfg.StrideFilterEntries, cfg.CzoneBits); err != nil {
			return nil, err
		}
	case MinDeltaScheme:
		if s.streams == nil {
			return nil, fmt.Errorf("core: stride detection configured without streams")
		}
		if s.md, err = filter.NewMinDelta(cfg.StrideFilterEntries, cfg.MinDeltaMax); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("core: unknown stride scheme %v", cfg.Stride)
	}
	return s, nil
}

// Config returns the configuration the system was built with.
func (s *System) Config() Config { return s.cfg }

// SetCzoneBits retunes the czone at run time (the paper's memory-mapped
// mask store). It fails unless the czone scheme is active.
func (s *System) SetCzoneBits(bits uint) error {
	if s.nf == nil {
		return fmt.Errorf("core: czone scheme not configured")
	}
	return s.nf.SetCzoneBits(bits)
}

// AddInstructions advances the retired-instruction counter; workloads
// call this so Table 1's MPI column can be computed.
func (s *System) AddInstructions(n uint64) { s.instructions += n }

// Instructions returns the retired-instruction count.
func (s *System) Instructions() uint64 { return s.instructions }

// Level says where an access was satisfied.
type Level uint8

// Service levels, nearest first.
const (
	// LevelUnsampled means set sampling skipped the reference.
	LevelUnsampled Level = iota
	// LevelL1 is an on-chip cache hit.
	LevelL1
	// LevelVictim is a victim-buffer hit (no off-chip traffic).
	LevelVictim
	// LevelStream is a stream-buffer hit.
	LevelStream
	// LevelMemory is a fast-path fetch from main memory.
	LevelMemory
	// LevelNone is a no-write-allocate store forwarded to memory.
	LevelNone
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelUnsampled:
		return "unsampled"
	case LevelL1:
		return "L1"
	case LevelVictim:
		return "victim"
	case LevelStream:
		return "stream"
	case LevelMemory:
		return "memory"
	case LevelNone:
		return "none"
	default:
		return fmt.Sprintf("Level(%d)", uint8(l))
	}
}

// Outcome describes what one access did, for timing models layered on
// top of the functional simulator.
type Outcome struct {
	// Level is where the data came from.
	Level Level
	// Pending is set for stream hits whose prefetch had not yet
	// returned (the paper's Section 8 caveat).
	Pending bool
	// WroteBack is set when the access displaced a dirty block to
	// memory (directly or out of the victim buffer).
	WroteBack bool
	// Prefetches counts stream prefetches issued as a side effect.
	Prefetches uint64
}

// Access presents one memory reference to the system.
//
// The L1 probe is inlined here (and in AccessBatch) rather than
// delegated: the stream workloads hit L1 on the vast majority of
// references, and finishing a hit without a second call frame is
// worth the small duplication with AccessBatch.
//
//simlint:hotpath
func (s *System) Access(a mem.Access) {
	c, write, ifetch := s.l1d, a.Kind == mem.Write, false
	if a.Kind == IFetchKind {
		c, write, ifetch = s.l1i, false, true
	}
	if way, st := c.Probe(uint64(a.Addr)); st == cache.ProbeHit {
		c.HitAt(way, write)
		s.out.Level = LevelL1
	} else {
		s.missVia(c, a.Addr, write, ifetch, st)
	}
}

// AccessBatch presents a slice of references in order. It is the replay
// fast path: one call replaces len(accs) interface dispatches. The
// statistics produced are byte-identical to calling Access in a loop.
//
//simlint:hotpath
//simlint:borrowed accs
func (s *System) AccessBatch(accs []mem.Access) {
	for i := range accs {
		a := &accs[i]
		c, write, ifetch := s.l1d, a.Kind == mem.Write, false
		if a.Kind == IFetchKind {
			c, write, ifetch = s.l1i, false, true
		}
		way, st := c.Probe(uint64(a.Addr))
		if st == cache.ProbeHit {
			c.HitAt(way, write)
			s.out.Level = LevelL1
			continue
		}
		s.missVia(c, a.Addr, write, ifetch, st)
	}
}

// AccessPacked presents packed references — uint64(addr)<<2 |
// uint64(kind), the trace.(*StoreIter).NextPacked layout — in order.
// It is the trace-replay hot path: the statistics produced are
// byte-identical to AccessBatch over the equivalent mem.Access slice,
// but each reference is a single word unpacked straight into the
// probe, with no struct materialization between decode and simulation.
//
//simlint:hotpath
//simlint:borrowed words
func (s *System) AccessPacked(words []uint64) {
	// Stack-resident probe snapshots: the compiler can prove the
	// bookkeeping calls below never write through them, so the cache
	// geometry loads hoist out of the loop instead of being reissued
	// for every reference (see cache.Prober).
	ld, li := s.l1d, s.l1i
	pd, pi := ld.Prober(), li.Prober()
	if !pd.DeferHits() || !pi.DeferHits() {
		// Stamped replacement: every hit must update its way's stamp,
		// so run the full per-reference bookkeeping.
		for i, w := range words {
			c, p, write, ifetch := ld, &pd, w&3 == uint64(mem.Write), false
			if w&3 == uint64(IFetchKind) {
				c, p, write, ifetch = li, &pi, false, true
			}
			way, st := p.Probe(w >> 2)
			if st == cache.ProbeHit {
				c.HitAt(way, write)
				continue
			}
			s.tapRef = uint32(i)
			s.missVia(c, mem.Addr(w>>2), write, ifetch, st)
		}
		return
	}
	// Random replacement (the paper's L1s): a read hit's only effect is
	// the hit counter, so the dominant path of the loop accumulates in
	// registers and flushes once per batch — no per-reference stores at
	// all on a read hit.
	var hitsD, hitsI uint64
	for i, w := range words {
		if w&3 == uint64(IFetchKind) {
			if _, st := pi.Probe(w >> 2); st == cache.ProbeHit {
				hitsI++
			} else {
				s.tapRef = uint32(i)
				s.missVia(li, mem.Addr(w>>2), false, true, st)
			}
			continue
		}
		write := w&3 == uint64(mem.Write)
		way, st := pd.Probe(w >> 2)
		switch {
		case st != cache.ProbeHit:
			s.tapRef = uint32(i)
			s.missVia(ld, mem.Addr(w>>2), write, false, st)
		case write:
			ld.HitAt(way, true)
		default:
			hitsD++
		}
	}
	ld.AddHits(hitsD)
	li.AddHits(hitsI)
}

// AccessOutcome is Access plus a report of how the reference was
// serviced; timing models use it to charge latencies. The outcome is
// accounted incrementally inside missVia (each step records what it
// did as it happens), so the cost is O(1) per access regardless of the
// number of streams — and zero when no stream set is configured.
//
//simlint:hotpath
func (s *System) AccessOutcome(a mem.Access) Outcome {
	// Clear the event fields here rather than in missVia: plain
	// Access calls never read them, so the common replay path skips
	// the per-reference reset. Access always sets Level.
	s.out = Outcome{}
	s.Access(a)
	return s.out
}

// IFetchKind re-exports mem.IFetch for the convenience of callers that
// already import core.
const IFetchKind = mem.IFetch

// missVia continues a reference that did not hit in the on-chip cache
// c (st is the probe status Access observed): the victim buffer →
// streams → memory flow. It accounts s.out incrementally as it goes:
// every step that issues prefetches or writes back records it here, so
// AccessOutcome needs no before/after stats diffing. The event fields
// of s.out are only valid when the caller (AccessOutcome) cleared
// them first; Level is written on every path.
//
//simlint:hotpath
func (s *System) missVia(c *cache.Cache, addr mem.Addr, write, ifetch bool, st cache.ProbeStatus) {
	if st == cache.ProbeUnsampled {
		c.NoteUnsampled()
		s.out.Level = LevelUnsampled
		return
	}
	res := c.MissAt(uint64(addr), write)
	// On-chip miss. Route the displaced line first.
	vc := s.victimD
	if ifetch {
		vc = s.victimI
	}
	switch {
	case res.Evicted && vc != nil:
		// The evicted line (clean or dirty) moves into the victim
		// buffer; a dirty line displaced *out* of the buffer continues
		// to memory, bypassing and invalidating the streams.
		if wbBlock, wb := vc.Insert(res.VictimBlock, res.EvictedDirty); wb {
			s.bw.WriteBacks++
			s.out.WroteBack = true
			s.noteTraffic(mem.Addr(wbBlock))
			s.invalidateStreams(mem.Addr(wbBlock))
			if s.tap != nil {
				s.tapEvent(wbBlock, TapWriteBack, write, ifetch)
			}
		}
	case res.WroteBack:
		// No victim buffer: the dirty line goes straight to memory.
		s.bw.WriteBacks++
		s.out.WroteBack = true
		s.noteTraffic(mem.Addr(res.VictimBlock))
		s.invalidateStreams(mem.Addr(res.VictimBlock))
		if s.tap != nil {
			s.tapEvent(res.VictimBlock, TapWriteBack, write, ifetch)
		}
	}
	if !res.Filled {
		// No-write-allocate store miss: the store itself goes to
		// memory (already counted by the cache's WriteBacks); nothing
		// to fetch.
		s.out.Level = LevelNone
		if s.tap != nil {
			s.tapEvent(uint64(addr), TapStoreThrough, write, ifetch)
		}
		return
	}
	blk := s.geom.BlockAddr(addr)
	// The victim buffer is closer than the streams: a hit swaps the
	// line back with no off-chip traffic.
	if vc != nil {
		if hit, dirty := vc.Probe(uint64(blk)); hit {
			s.bw.VictimFills++
			s.out.Level = LevelVictim
			if dirty && !write {
				c.SetDirty(uint64(addr))
			}
			return
		}
	}
	if s.tap != nil {
		s.tapEvent(uint64(addr), 0, write, ifetch)
	}
	set := s.streams
	if ifetch && s.streamsI != nil {
		set = s.streamsI
	}
	if set == nil {
		s.bw.DemandFetches++
		s.out.Level = LevelMemory
		s.noteTraffic(blk)
		return
	}
	if pr := set.ProbeOutcome(blk); pr.Hit {
		// Block supplied by a stream buffer; its fetch was already
		// accounted when the prefetch was issued.
		s.bw.StreamFills++
		s.out.Level = LevelStream
		s.out.Pending = pr.Pending
		s.out.Prefetches += pr.Issued
		return
	}
	// Stream miss: fetch over the fast path, then decide allocation.
	s.bw.DemandFetches++
	s.out.Level = LevelMemory
	s.noteTraffic(blk)
	s.allocatePolicy(set, addr, blk)
}

// noteTraffic reports a demand-side block transfer to the hook.
func (s *System) noteTraffic(blk mem.Addr) {
	if s.cfg.OnMemoryTraffic != nil {
		s.cfg.OnMemoryTraffic(blk)
	}
}

// invalidateStreams clears a written-back block from every stream set.
func (s *System) invalidateStreams(blk mem.Addr) {
	if s.streams != nil {
		s.streams.InvalidateBlock(blk)
	}
	if s.streamsI != nil {
		s.streamsI.InvalidateBlock(blk)
	}
}

// tapEvent records one backend event for a multi-config fan-out
// leader. Outlined from missVia so the //simlint:hotpath closure stays
// free of allocating constructs: the append runs only when a fan-out
// replay armed the tap (s.tap != nil), never on the single-system
// steady state, and the leader preallocates the buffer to the batch
// length so growth is the rare case even then.
//
//simlint:coldpath
func (s *System) tapEvent(addr uint64, kind uint8, write, ifetch bool) {
	if write {
		kind |= TapWrite
	}
	if ifetch {
		kind |= TapIFetch
	}
	s.tap = append(s.tap, TapEvent{Addr: addr, Ref: s.tapRef, Kind: kind})
}

// applyTap replays a leader system's tapped backend events (see
// System.tap) through this system's stream-side state: write-backs
// invalidate streams and fill misses run the victim-less routing tail
// of missVia. The caller guarantees this system's L1 front end is
// configured identically to the leader's and has no victim cache, so
// every L1 decision the leader made holds here verbatim; the L1
// statistics themselves are copied once at the end of the replay
// (adoptFrontStats) instead of being re-simulated. Like missVia it
// accounts s.out as it goes, which TapOutcome reads.
//
//simlint:hotpath
//simlint:borrowed events
func (s *System) applyTap(events []TapEvent) {
	for i := range events {
		ev := &events[i]
		if ev.Kind&TapWriteBack != 0 {
			blk := mem.Addr(ev.Addr)
			s.bw.WriteBacks++
			s.out.WroteBack = true
			s.noteTraffic(blk)
			s.invalidateStreams(blk)
			continue
		}
		if ev.Kind&TapStoreThrough != 0 {
			s.out.Level = LevelNone
			continue
		}
		addr := mem.Addr(ev.Addr)
		blk := s.geom.BlockAddr(addr)
		set := s.streams
		if ev.Kind&TapIFetch != 0 && s.streamsI != nil {
			set = s.streamsI
		}
		s.out.Level = LevelMemory
		if set == nil {
			s.bw.DemandFetches++
			s.noteTraffic(blk)
			continue
		}
		if pr := set.ProbeOutcome(blk); pr.Hit {
			s.bw.StreamFills++
			s.out.Level = LevelStream
			s.out.Pending = pr.Pending
			s.out.Prefetches += pr.Issued
			continue
		}
		s.bw.DemandFetches++
		s.noteTraffic(blk)
		s.allocatePolicy(set, addr, blk)
	}
}

// TapOutcome runs the backend events of one reference — the events a
// ReplayFront batch reported with one Ref — through this system's
// stream side and reports how the reference was serviced, exactly as
// AccessOutcome would have on a system that simulated its own L1.
//
//simlint:hotpath
//simlint:borrowed events
func (s *System) TapOutcome(events []TapEvent) Outcome {
	s.out = Outcome{}
	s.applyTap(events)
	return s.out
}

// adoptFrontStats copies the shared-front L1 statistics from the
// leader of a fan-out replay onto this follower, whose own L1 state
// was never exercised (applyTap fed it backend events only). Identical
// configuration and an identical reference stream make the leader's
// L1 counters exactly what this system's would have been.
func (s *System) adoptFrontStats(leader *System) {
	s.l1i.SetStats(leader.l1i.Stats())
	s.l1d.SetStats(leader.l1d.Stats())
}

// adoptFront copies the leader's whole L1 front end — architectural
// state and statistics — onto this follower. The prefix replay engine
// uses it instead of adoptFrontStats so every system it returns is
// individually checkpointable: a follower's own L1 was never exercised
// (applyTap fed it backend events only), and a checkpoint that froze
// that pristine front could not resume as a leader or solo system. The
// clone is exactly the L1 a solo replay would have left, because the
// shared front guarantees identical configuration over an identical
// reference stream.
func (s *System) adoptFront(leader *System) {
	s.l1i = leader.l1i.Clone()
	s.l1d = leader.l1d.Clone()
}

// allocatePolicy implements the paper's allocation pipeline: no filter
// means allocate-on-every-miss; with the unit-stride filter a stream is
// allocated only on a filter hit; references rejected by the unit
// filter flow to the non-unit-stride scheme when one is configured.
// set is the stream set the miss belongs to (partitioned systems share
// one filter pipeline, as the MacroTek part does).
func (s *System) allocatePolicy(set *stream.Set, addr, blk mem.Addr) {
	if s.uf == nil {
		// Ordinary streams (Section 5): every miss allocates. A
		// configured stride scheme still observes the miss so purely
		// strided programs can profit (used by ablation benches only;
		// the paper always pairs stride detection with the filter).
		if s.nf != nil || s.md != nil {
			s.observeStride(set, addr)
		}
		s.out.Prefetches += set.AllocateUnit(blk)
		return
	}
	if s.uf.Lookup(blk) {
		s.out.Prefetches += set.AllocateUnit(blk)
		return
	}
	s.observeStride(set, addr)
}

// observeStride feeds the configured non-unit-stride detector and
// allocates a strided stream on verification.
func (s *System) observeStride(set *stream.Set, addr mem.Addr) {
	word := s.geom.WordAddr(addr)
	switch {
	case s.nf != nil:
		if ok, last, stride := s.nf.Observe(word); ok {
			s.out.Prefetches += set.AllocateStrided(last, stride)
		}
	case s.md != nil:
		if ok, stride := s.md.Observe(word); ok {
			s.out.Prefetches += set.AllocateStrided(word, stride)
		}
	}
}

// Finish closes the bandwidth ledger: in-flight prefetches count as
// wasted and live stream lengths are recorded. Call once, after the
// last access; Results calls it implicitly.
func (s *System) Finish() {
	if s.finished {
		return
	}
	s.finished = true
	if s.streams != nil {
		s.streams.Finish()
	}
	if s.streamsI != nil {
		s.streamsI.Finish()
	}
}

// Results summarizes a finished run.
type Results struct {
	// L1I and L1D are the cache-level statistics.
	L1I cache.Stats
	L1D cache.Stats
	// Streams is the stream-set statistics: the unified set, or the
	// merged instruction + data sets when partitioned.
	Streams stream.Stats
	// StreamsI and StreamsD split the partitioned sets (zero when the
	// streams are unified).
	StreamsI stream.Stats
	StreamsD stream.Stats
	// VictimI and VictimD are the per-cache victim buffer statistics
	// (zero when no victim cache is configured).
	VictimI victim.Stats
	VictimD victim.Stats
	// UnitFilter and StrideFilter are filter statistics (zero when the
	// corresponding hardware is disabled).
	UnitFilter  filter.UnitStrideStats
	CzoneFilter filter.NonUnitStrideStats
	MinDelta    filter.MinDeltaStats
	// Bandwidth is the block-traffic ledger.
	Bandwidth Bandwidth
	// Instructions is the retired-instruction count workloads reported.
	Instructions uint64
}

// Results finalizes the run and returns its summary.
func (s *System) Results() Results {
	s.Finish()
	r := Results{
		L1I:          s.l1i.Stats(),
		L1D:          s.l1d.Stats(),
		Bandwidth:    s.bw,
		Instructions: s.instructions,
	}
	if s.streams != nil {
		r.Streams = s.streams.Stats()
		if s.streamsI != nil {
			r.StreamsD = r.Streams
			r.StreamsI = s.streamsI.Stats()
			r.Streams = r.StreamsD.Add(r.StreamsI)
		}
	}
	if s.victimI != nil {
		r.VictimI = s.victimI.Stats()
		r.VictimD = s.victimD.Stats()
	}
	if s.uf != nil {
		r.UnitFilter = s.uf.Stats()
	}
	if s.nf != nil {
		r.CzoneFilter = s.nf.Stats()
	}
	if s.md != nil {
		r.MinDelta = s.md.Stats()
	}
	return r
}

// StreamHitRate is the paper's primary metric: the fraction of on-chip
// misses that hit in the streams, in percent.
func (r Results) StreamHitRate() float64 {
	return 100 * r.Streams.HitRate()
}

// DataMissRate is the L1D miss rate in percent (Table 1).
func (r Results) DataMissRate() float64 {
	return 100 * r.L1D.MissRate()
}

// MPI is misses per instruction in percent (Table 1's final column),
// over both caches.
func (r Results) MPI() float64 {
	return stats.Percent(r.L1I.Misses+r.L1D.Misses, r.Instructions)
}

// ExtraBandwidth is the Section 5/6 EB metric in percent: prefetched
// blocks never consumed, relative to the blocks the program itself
// fetches (its required bandwidth without streams).
func (r Results) ExtraBandwidth() float64 {
	required := r.L1I.Fills + r.L1D.Fills
	return stats.ExtraBandwidth(r.Streams.PrefetchesWasted, required)
}

// MemoryTraffic returns total blocks moved to/from memory: demand
// fetches, prefetches and write-backs.
func (r Results) MemoryTraffic() uint64 {
	return r.Bandwidth.DemandFetches + r.Streams.PrefetchesIssued + r.Bandwidth.WriteBacks
}

// RequiredTraffic returns the blocks the program would move without
// streams: every fill plus every write-back.
func (r Results) RequiredTraffic() uint64 {
	return r.L1I.Fills + r.L1D.Fills + r.Bandwidth.WriteBacks
}
