package prefetch

// Allocation gates for the on-chip prefetcher baselines: the batched
// L1 replay, the OBL successor lists and the RPT's per-reference
// automaton must not allocate per reference or per miss.

import (
	"testing"

	"streamsim/internal/cache"
	"streamsim/internal/mem"
	"streamsim/internal/trace"
)

// l1Config is a small random-replacement L1, the paper's policy.
func l1Config(name string) cache.Config {
	return cache.Config{
		Name: name, SizeBytes: 8 << 10, Assoc: 4, BlockBytes: 64,
		Replacement: cache.Random, Write: cache.WriteBack, Alloc: cache.WriteAllocate, Seed: 3,
	}
}

// stridedBatch is a batch of strided data references from a few PCs,
// with instruction fetches mixed in, that keeps both prefetchers busy.
func stridedBatch(base mem.Addr) []mem.Access {
	accs := make([]mem.Access, trace.ReplayBatchLen)
	for i := range accs {
		pc := mem.Addr(0x400 + 4*(i%4))
		switch i % 4 {
		case 0:
			accs[i] = mem.Access{Addr: 0x10000 + mem.Addr(i%64)*4, Kind: mem.IFetch}
		case 1:
			accs[i] = mem.Access{Addr: base + mem.Addr(i)*96, Kind: mem.Write, PC: pc}
		default:
			accs[i] = mem.Access{Addr: base + mem.Addr(i)*64, Kind: mem.Read, PC: pc}
		}
	}
	return accs
}

//simlint:hotpath (*streamsim/internal/prefetch.OnChip).AccessBatch
func TestOnChipAccessBatchDoesNotAllocate(t *testing.T) {
	geom := mem.DefaultGeometry()
	obl, err := NewOBL(2)
	if err != nil {
		t.Fatal(err)
	}
	rpt, err := NewRPT(geom, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		p    Prefetcher
		rpt  *RPT
	}{{"OBL", obl, nil}, {"RPT", rpt, rpt}} {
		oc, err := NewOnChip(geom, l1Config("L1I"), l1Config("L1D"), tc.p, tc.rpt)
		if err != nil {
			t.Fatal(err)
		}
		base := mem.Addr(1 << 24)
		accs := stridedBatch(base)
		oc.AccessBatch(accs) // warm the tables
		avg := testing.AllocsPerRun(100, func() {
			for i := range accs {
				if accs[i].Kind != mem.IFetch {
					accs[i].Addr += 1 << 15
				}
			}
			oc.AccessBatch(accs)
		})
		if avg != 0 {
			t.Errorf("%s: AccessBatch allocates %v times per batch; want 0", tc.name, avg)
		}
		if st := oc.Finish(); st.Issued == 0 || st.Misses == 0 {
			t.Errorf("%s: gate batch issued %d prefetches over %d misses; want both nonzero", tc.name, st.Issued, st.Misses)
		}
	}
}

//simlint:hotpath (*streamsim/internal/prefetch.OBL).Miss
//simlint:hotpath (*streamsim/internal/prefetch.OBL).FirstUse
func TestOBLDoesNotAllocate(t *testing.T) {
	o, err := NewOBL(4)
	if err != nil {
		t.Fatal(err)
	}
	blk := mem.Addr(100)
	avg := testing.AllocsPerRun(1000, func() {
		if got := o.Miss(mem.Access{}, blk); len(got) != 4 || got[0] != blk+1 {
			t.Fatalf("Miss(%d) = %v", blk, got)
		}
		if got := o.FirstUse(mem.Access{}, blk); got[3] != blk+4 {
			t.Fatalf("FirstUse(%d) = %v", blk, got)
		}
		blk++
	})
	if avg != 0 {
		t.Errorf("OBL allocates %v times per Miss+FirstUse; want 0", avg)
	}
}
