package cache

import "testing"

func TestPrefetchFillsWithoutDemandStats(t *testing.T) {
	c := small(t)
	res := c.Prefetch(0x1000)
	if !res.Filled || res.Hit {
		t.Fatalf("cold prefetch result = %+v, want a fill", res)
	}
	s := c.Stats()
	if s.Accesses != 0 || s.Misses != 0 {
		t.Errorf("prefetch polluted demand stats: %+v", s)
	}
	if s.PrefetchFills != 1 {
		t.Errorf("PrefetchFills = %d, want 1", s.PrefetchFills)
	}
	if !c.Contains(0x1000) {
		t.Error("prefetched block not resident")
	}
	if r := c.Read(0x1000); !r.Hit {
		t.Error("demand access after prefetch should hit")
	}
}

func TestPrefetchResidentNoop(t *testing.T) {
	c := small(t)
	c.Read(0x1000)
	res := c.Prefetch(0x1000)
	if res.Filled || !res.Hit {
		t.Errorf("prefetch of resident block = %+v, want hit/no-fill", res)
	}
	if got := c.Stats().PrefetchFills; got != 0 {
		t.Errorf("PrefetchFills = %d, want 0", got)
	}
}

func TestPrefetchEvictsAndReportsWriteBack(t *testing.T) {
	c := small(t)          // 4-set direct-mapped, 256 B
	c.Write(0)             // dirty block 0 in set 0
	res := c.Prefetch(256) // same set
	if !res.Evicted || !res.WroteBack || res.VictimBlock != 0 {
		t.Errorf("prefetch eviction = %+v, want dirty victim block 0", res)
	}
	if got := c.Stats().WriteBacks; got != 1 {
		t.Errorf("WriteBacks = %d, want 1", got)
	}
}

func TestPrefetchRespectsSetSampling(t *testing.T) {
	c, err := New(Config{SizeBytes: 16 * 64, Assoc: 1, BlockBytes: 64,
		Replacement: LRU, Write: WriteBack, Alloc: WriteAllocate, SampleEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res := c.Prefetch(64); res.Sampled { // set 1: unsampled
		t.Error("prefetch into an unsampled set should be skipped")
	}
	if res := c.Prefetch(0); !res.Sampled || !res.Filled {
		t.Error("prefetch into a sampled set should fill")
	}
}

func TestPrefetchedBlockAges(t *testing.T) {
	// A prefetched block participates in LRU like any other line.
	c, err := New(Config{SizeBytes: 2 * 64, Assoc: 2, BlockBytes: 64,
		Replacement: LRU, Write: WriteBack, Alloc: WriteAllocate})
	if err != nil {
		t.Fatal(err)
	}
	c.Prefetch(0) // oldest
	c.Read(64)    // newer
	c.Read(128)   // evicts the prefetched 0
	if c.Contains(0) {
		t.Error("stale prefetched block should be the LRU victim")
	}
}

func TestSetDirty(t *testing.T) {
	c := small(t)
	if c.SetDirty(0x1000) {
		t.Error("SetDirty on absent block should report false")
	}
	c.Read(0x1000)
	if !c.SetDirty(0x1000) {
		t.Fatal("SetDirty on resident block should succeed")
	}
	// Evicting it must now write back.
	res := c.Read(0x1000 + 4096)
	if !res.WroteBack {
		t.Error("block marked dirty via SetDirty did not write back")
	}
}

func TestPrefetchedBitSetOnlyByFillingPrefetch(t *testing.T) {
	c := small(t)
	c.Read(0x1000)
	c.Prefetch(0x1000) // resident: no fill, no mark
	if got := c.UntouchedPrefetches(); got != 0 {
		t.Fatalf("prefetch of a resident block marked %d lines, want 0", got)
	}
	if r := c.Read(0x1000); r.Prefetched {
		t.Error("demand-fetched line reported as prefetched")
	}
	c.Write(0x2040) // demand fills carry no mark either
	if got := c.UntouchedPrefetches(); got != 0 {
		t.Fatalf("demand fills marked %d lines, want 0", got)
	}
	if res := c.Prefetch(0x3080); !res.Filled {
		t.Fatal("cold prefetch did not fill")
	}
	if got := c.UntouchedPrefetches(); got != 1 {
		t.Errorf("UntouchedPrefetches = %d after one filling prefetch, want 1", got)
	}
}

func TestPrefetchedBitClaimedOnceOnFirstHit(t *testing.T) {
	for _, write := range []bool{false, true} {
		c := small(t)
		c.Prefetch(0x1000)
		access := c.Read
		if write {
			access = c.Write
		}
		if r := access(0x1000); !r.Hit || !r.Prefetched {
			t.Fatalf("write=%v: first hit = %+v, want a hit reporting the prefetch", write, r)
		}
		if r := access(0x1000); !r.Hit || r.Prefetched {
			t.Errorf("write=%v: second hit = %+v, want the mark already cleared", write, r)
		}
		if got := c.UntouchedPrefetches(); got != 0 {
			t.Errorf("write=%v: %d untouched lines after first use, want 0", write, got)
		}
	}
}

func TestClaimPrefetchedAfterProbe(t *testing.T) {
	c := small(t)
	c.Prefetch(0x1000)
	way, st := c.Probe(0x1000)
	if st != ProbeHit {
		t.Fatal("prefetched block not found by Probe")
	}
	c.HitAt(way, false) // HitAt leaves the mark for the caller
	if !c.ClaimPrefetched(way) {
		t.Fatal("ClaimPrefetched missed the mark")
	}
	if c.ClaimPrefetched(way) {
		t.Error("ClaimPrefetched reported the mark twice")
	}
}

func TestPrefetchedBitReportedOnEviction(t *testing.T) {
	c := small(t) // direct-mapped: 0 and 256 share set 0
	c.Prefetch(0)
	if res := c.Read(256); !res.Evicted || !res.EvictedPrefetched || res.VictimBlock != 0 {
		t.Errorf("demand eviction of an untouched prefetch = %+v, want EvictedPrefetched", res)
	}
	c.Prefetch(64)
	if res := c.Prefetch(64 + 256); !res.EvictedPrefetched || res.VictimBlock != 1 {
		t.Errorf("prefetch eviction of an untouched prefetch = %+v, want EvictedPrefetched", res)
	}
	c.Read(64 + 256) // claims the mark on block 5
	if res := c.Read(64); !res.Evicted || res.EvictedPrefetched {
		t.Errorf("eviction of a used prefetch = %+v, want no EvictedPrefetched", res)
	}
}

func TestPrefetchedBitCopiedByClone(t *testing.T) {
	c := small(t)
	c.Prefetch(0x1000)
	n := c.Clone()
	if r := c.Read(0x1000); !r.Prefetched {
		t.Fatal("original lost its mark")
	}
	if got := n.UntouchedPrefetches(); got != 1 {
		t.Fatalf("clone has %d untouched lines, want 1 (independent of the original)", got)
	}
	if r := n.Read(0x1000); !r.Prefetched {
		t.Error("clone did not carry the prefetched mark")
	}
}

func TestPrefetchedBitClearedByInvalidateAndFlush(t *testing.T) {
	c := small(t)
	c.Prefetch(0x1000)
	c.Prefetch(0x1040)
	c.Invalidate(0x1000)
	if got := c.UntouchedPrefetches(); got != 1 {
		t.Fatalf("UntouchedPrefetches = %d after Invalidate, want 1", got)
	}
	c.Read(0x1000) // refill by demand: unmarked
	if r := c.Read(0x1000); r.Prefetched {
		t.Error("line refilled after Invalidate kept the mark")
	}
	c.Flush()
	if got := c.UntouchedPrefetches(); got != 0 {
		t.Errorf("UntouchedPrefetches = %d after Flush, want 0", got)
	}
}
