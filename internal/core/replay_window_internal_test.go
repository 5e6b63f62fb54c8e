package core

import "testing"

// TestPlanShards pins the chunk plan's boundaries: plans split only
// when every chunk can carry minChunkWindows and cap at maxAutoChunks.
// The plan is a function of the window count alone — that invariant
// is what makes sharded results machine-independent.
func TestPlanShards(t *testing.T) {
	cases := []struct {
		K, want int
	}{
		{0, 1},
		{1, 1},
		{minChunkWindows*2 - 1, 1},
		{minChunkWindows * 2, 2},
		{minChunkWindows * 10, 10},
		{minChunkWindows * maxAutoChunks * 4, maxAutoChunks},
	}
	for _, c := range cases {
		if got := planShards(c.K); got != c.want {
			t.Errorf("planShards(%d) = %d, want %d", c.K, got, c.want)
		}
	}
}
