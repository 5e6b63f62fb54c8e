package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"streamsim/internal/cache"
	"streamsim/internal/workload"
)

// quick runs experiments at a small scale to keep the suite fast.
var quick = Options{Scale: 0.1}

func TestLookup(t *testing.T) {
	for _, e := range All() {
		got, err := Lookup(e.ID)
		if err != nil {
			t.Errorf("Lookup(%q): %v", e.ID, err)
		}
		if got.Paper != e.Paper {
			t.Errorf("Lookup(%q) returned %q", e.ID, got.Paper)
		}
	}
	if _, err := Lookup("table99"); err == nil {
		t.Error("unknown id should be rejected")
	}
}

func TestAllInPaperOrder(t *testing.T) {
	want := []string{"table1", "fig3", "table2", "fig5", "table3", "fig8", "fig9", "table4", "extcpi", "extbase", "extcost", "extscale", "extbank"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("All() has %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Errorf("All()[%d] = %q, want %q", i, e.ID, want[i])
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Scale != 1.0 {
		t.Errorf("default scale = %v, want 1.0", o.Scale)
	}
	o = Options{Scale: 0.5}.withDefaults()
	if o.Scale != 0.5 {
		t.Error("explicit scale overwritten")
	}
}

func TestTable1Shape(t *testing.T) {
	tbl, err := Table1(context.Background(), quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 15 {
		t.Errorf("Table 1 has %d rows, want 15", len(tbl.Rows))
	}
	if len(tbl.Columns) != 8 {
		t.Errorf("Table 1 has %d columns, want 8", len(tbl.Columns))
	}
	if tbl.Rows[0][0] != "embar" || tbl.Rows[14][0] != "trfd" {
		t.Error("rows not in the paper's Table 1 order")
	}
	out := tbl.Render()
	if !strings.Contains(out, "benchmark") || !strings.Contains(out, "mgrid") {
		t.Error("render incomplete")
	}
}

func TestFigure3Shape(t *testing.T) {
	tbl, err := Figure3(context.Background(), quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 15 {
		t.Errorf("Figure 3 has %d rows, want 15", len(tbl.Rows))
	}
	// benchmark + one column per stream count.
	if len(tbl.Columns) != 1+len(figure3StreamCounts) {
		t.Errorf("Figure 3 has %d columns, want %d", len(tbl.Columns), 1+len(figure3StreamCounts))
	}
}

func TestTable2Shape(t *testing.T) {
	tbl, err := Table2(context.Background(), quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 15 || len(tbl.Columns) != 4 {
		t.Errorf("Table 2 shape %dx%d, want 15x4", len(tbl.Rows), len(tbl.Columns))
	}
}

func TestFigure5Shape(t *testing.T) {
	tbl, err := Figure5(context.Background(), quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 15 || len(tbl.Columns) != 7 {
		t.Errorf("Figure 5 shape %dx%d, want 15x7", len(tbl.Rows), len(tbl.Columns))
	}
}

func TestTable3SharesSumTo100(t *testing.T) {
	tbl, err := Table3(context.Background(), quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		var sum float64
		for _, cell := range row[1:6] {
			var v float64
			if _, err := fmt.Sscan(cell, &v); err != nil {
				t.Fatalf("%s: bad cell %q", row[0], cell)
			}
			sum += v
		}
		if sum < 99 || sum > 101 {
			t.Errorf("%s: length shares sum to %.1f, want ~100", row[0], sum)
		}
	}
}

func TestFigure8Shape(t *testing.T) {
	tbl, err := Figure8(context.Background(), quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 15 || len(tbl.Columns) != 5 {
		t.Errorf("Figure 8 shape %dx%d, want 15x5", len(tbl.Rows), len(tbl.Columns))
	}
}

func TestFigure9Shape(t *testing.T) {
	tbl, err := Figure9(context.Background(), quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Errorf("Figure 9 has %d rows, want 3 (appsp, fftpde, trfd)", len(tbl.Rows))
	}
	if len(tbl.Columns) != 1+len(figure9CzoneBits) {
		t.Errorf("Figure 9 has %d columns, want %d", len(tbl.Columns), 1+len(figure9CzoneBits))
	}
}

// TestFigure9DefaultIsExact pins the reproduction's default output to
// the exact simulation: Figure 9 with default options renders the same
// table as with the deprecated exact-replay request (Shards: 1), on
// traces long enough (fftpde, trfd) that a window-sharded replay would
// split them and shift the printed hit rates. The trace cache is reset
// between the runs so the second simulates rather than reading the
// first's memoized results.
func TestFigure9DefaultIsExact(t *testing.T) {
	ctx := context.Background()
	def, err := Figure9(ctx, Options{Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	ResetTraceCache()
	exact, err := Figure9(ctx, Options{Scale: 0.1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := def.Render(), exact.Render(); got != want {
		t.Errorf("default Figure 9 differs from the exact replay:\n%s\nwant\n%s", got, want)
	}
}

func TestTable4Shape(t *testing.T) {
	tbl, err := Table4(context.Background(), quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 10 { // 5 benchmarks x 2 sizes
		t.Errorf("Table 4 has %d rows, want 10", len(tbl.Rows))
	}
}

func TestTraceCacheReuse(t *testing.T) {
	ResetTraceCache()
	a, err := record(context.Background(), "embar", workload.SizeSmall, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	b, err := record(context.Background(), "embar", workload.SizeSmall, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("second record() should return the cached trace")
	}
	c, err := record(context.Background(), "embar", workload.SizeSmall, 0.04)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different scale must not share a cache entry")
	}
}

func TestMissStreamDeterministic(t *testing.T) {
	a, err := missStream(context.Background(), "is", workload.SizeSmall, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.events) == 0 {
		t.Fatal("empty miss stream")
	}
	b, err := missStream(context.Background(), "is", workload.SizeSmall, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("miss stream should be memoized")
	}
}

func TestL2HitRateMonotonicInSize(t *testing.T) {
	ms, err := missStream(context.Background(), "cgm", workload.SizeSmall, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, size := range []uint{64 << 10, 512 << 10, 4 << 20} {
		hr, err := ms.l2LocalHitRate(context.Background(), cache.Config{
			Name: "L2", SizeBytes: size, Assoc: 4, BlockBytes: 64,
			Replacement: cache.LRU, Write: cache.WriteBack, Alloc: cache.WriteAllocate,
		})
		if err != nil {
			t.Fatal(err)
		}
		if hr < prev-2 { // small tolerance: LRU anomalies exist
			t.Errorf("L2 hit rate fell with size: %.1f after %.1f", hr, prev)
		}
		prev = hr
	}
}

func TestMinL2ReportsUnreachable(t *testing.T) {
	// A target of 101% can never be met.
	name, _, err := minL2ForHitRate(context.Background(), "is", workload.SizeSmall, 0.05, 101)
	if err != nil {
		t.Fatal(err)
	}
	if name != "> 4 MB" {
		t.Errorf("unreachable target reported %q, want \"> 4 MB\"", name)
	}
}

func TestL2SizeName(t *testing.T) {
	cases := map[uint]string{
		64 << 10: "64 KB",
		1 << 20:  "1 MB",
		4 << 20:  "4 MB",
	}
	for in, want := range cases {
		if got := l2SizeName(in); got != want {
			t.Errorf("l2SizeName(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestRunParallelCoversAllIndices(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]bool{}
	err := runParallel(context.Background(), 37, func(i int) error {
		mu.Lock()
		seen[i] = true
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 37 {
		t.Errorf("ran %d indices, want 37", len(seen))
	}
}

func TestRunParallelPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	err := runParallel(context.Background(), 10, func(i int) error {
		if i == 7 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}
}

func TestRunParallelZero(t *testing.T) {
	if err := runParallel(context.Background(), 0, func(int) error { return errors.New("never") }); err != nil {
		t.Errorf("zero tasks should succeed, got %v", err)
	}
}
