package detect

import (
	"math"
	"testing"
)

// maxClusteredTickAllocs is the steady-state allocation budget of one
// mid-anomaly 1-row Append+Detect tick that clusters past the grid's
// dimensionality cutoff (14+ selected attributes) at workers=1.
// Measured: 2, the same core.ForEach closures as a healthy tick: the
// k-dist list and DBSCAN read one pooled 600×600 distance matrix, which
// is reused across ticks, not allocated per tick.
const maxClusteredTickAllocs = 2

func TestStreamClusteredTickAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are nondeterministic under -race (sync.Pool drops items)")
	}
	ds := buildStreamTrace(29, 600+30*64)
	s := filledStream(ds)
	in := chunks(ds, 600, 1)
	i := 0
	minDims := math.MaxInt
	tick := func() {
		s.Append(in[i%len(in)])
		i++
		res := s.Detect()
		d := len(res.SelectedAttrs)
		if res.Epsilon == 0 {
			d = 0 // selected attributes but no clustering
		}
		minDims = min(minDims, d)
	}
	for j := 0; j < 64; j++ {
		tick()
	}
	minDims = math.MaxInt
	got := testing.AllocsPerRun(50, tick)
	if minDims < 6 {
		t.Fatalf("a measured tick clustered in %d dimensions, want every tick past the grid cutoff (>= 6)", minDims)
	}
	if got > maxClusteredTickAllocs {
		t.Fatalf("steady-state clustered tick allocates %.1f times, budget %d", got, maxClusteredTickAllocs)
	}
}
