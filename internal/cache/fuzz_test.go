package cache

import (
	"testing"
)

// FuzzCacheOps drives an arbitrary operation sequence and checks the
// model's core invariants after every step: a just-accessed block is
// resident, counters balance, no set ever holds more than assoc
// distinct blocks (checked indirectly by replaying membership), and
// the prefetched mark follows its contract — set only by a filling
// Prefetch, reported once on the first demand hit, reported on
// eviction, and dropped by Invalidate.
func FuzzCacheOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 250, 251, 128, 60})
	f.Add([]byte{9, 9, 9, 9})
	f.Add([]byte{3, 0, 7, 4, 11, 67, 131, 195, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		c, err := New(Config{
			Name: "fuzz", SizeBytes: 2048, Assoc: 2, BlockBytes: 64,
			Replacement: LRU, Write: WriteBack, Alloc: WriteAllocate,
		})
		if err != nil {
			t.Fatal(err)
		}
		resident := map[uint64]bool{} // our belief, updated from results
		marked := map[uint64]bool{}   // believed prefetched and untouched
		for _, op := range ops {
			addr := uint64(op) * 64
			blk := addr / 64
			var res Result
			switch op % 4 {
			case 0:
				res = c.Read(addr)
			case 1:
				res = c.Write(addr)
			case 2:
				present, _ := c.Invalidate(addr)
				if present != resident[blk] {
					t.Fatalf("Invalidate(%#x) present=%v, believed %v", addr, present, resident[blk])
				}
				delete(resident, blk)
				delete(marked, blk)
				continue
			case 3:
				res = c.Prefetch(addr)
			}
			if !res.Sampled {
				t.Fatal("unsampled result without set sampling")
			}
			if res.Hit != resident[blk] {
				t.Fatalf("op %d on %#x hit=%v, believed resident=%v", op%4, addr, res.Hit, resident[blk])
			}
			demand := op%4 != 3
			if res.Prefetched != (demand && res.Hit && marked[blk]) {
				t.Fatalf("op %d on %#x Prefetched=%v, believed marked=%v hit=%v", op%4, addr, res.Prefetched, marked[blk], res.Hit)
			}
			if res.Hit && demand {
				delete(marked, blk) // the first demand use claims the mark
			}
			if res.Evicted {
				if !resident[res.VictimBlock] {
					t.Fatalf("evicted block %#x was not believed resident", res.VictimBlock)
				}
				if res.EvictedPrefetched != marked[res.VictimBlock] {
					t.Fatalf("evicted block %#x EvictedPrefetched=%v, believed marked=%v",
						res.VictimBlock, res.EvictedPrefetched, marked[res.VictimBlock])
				}
				delete(resident, res.VictimBlock)
				delete(marked, res.VictimBlock)
			} else if res.EvictedPrefetched {
				t.Fatalf("EvictedPrefetched without an eviction: %+v", res)
			}
			if res.Filled {
				resident[blk] = true
				if !demand {
					marked[blk] = true
				}
			}
			if !c.Contains(addr) {
				t.Fatalf("block %#x absent immediately after access", addr)
			}
			if got := c.UntouchedPrefetches(); got != uint64(len(marked)) {
				t.Fatalf("UntouchedPrefetches = %d, believed %d", got, len(marked))
			}
		}
		s := c.Stats()
		if s.Hits+s.Misses != s.Accesses {
			t.Fatalf("counter imbalance: %+v", s)
		}
	})
}
