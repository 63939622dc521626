package dbscan

import (
	"math"
	"reflect"
	"testing"
)

// FuzzGridClusterEquivalence feeds arbitrary point sets, eps, and
// minPts to both the grid-indexed and naive DBSCAN paths and requires
// identical labels up to cluster-id renumbering (in practice the ids
// match exactly too, but the canonical form keeps the invariant
// honest) plus identical k-dist lists. Wired into make fuzz-smoke.
func FuzzGridClusterEquivalence(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(2), 0.5, uint8(3))
	f.Add([]byte{0, 0, 0, 0, 10, 10, 10, 10, 20, 20}, uint8(1), 1.0, uint8(2))
	f.Add([]byte{255, 0, 128, 64, 32, 16, 8, 4, 2, 1, 9, 9}, uint8(3), 2.0, uint8(4))
	f.Fuzz(func(t *testing.T, raw []byte, dim uint8, eps float64, minPts uint8) {
		d := 1 + int(dim%9) // 1..9, crossing the maxGridDim cutoff
		if len(raw) < d {
			return
		}
		n := len(raw) / d
		if n > 512 {
			n = 512
		}
		pts := make([]Point, n)
		for i := 0; i < n; i++ {
			p := make(Point, d)
			for j := 0; j < d; j++ {
				b := raw[i*d+j]
				switch b {
				case 254:
					p[j] = math.NaN()
				case 255:
					p[j] = math.Inf(1)
				default:
					p[j] = float64(b) / 8
				}
			}
			pts[i] = p
		}
		mp := int(minPts%8) + 1

		want := refCluster(pts, eps, mp)
		got := Cluster(pts, eps, mp)
		if !reflect.DeepEqual(canonicalLabels(got), canonicalLabels(want)) {
			t.Fatalf("labels diverge (d=%d n=%d eps=%g minPts=%d)\n got=%v\nwant=%v", d, n, eps, mp, got, want)
		}

		wantK := KDist(pts, mp)
		gotK := KDistIndexed(pts, mp)
		if !float64sIdentical(gotK, wantK) {
			t.Fatalf("k-dist diverges (d=%d n=%d minPts=%d)\n got=%v\nwant=%v", d, n, mp, gotK, wantK)
		}
	})
}

// FuzzIndexSharedPass drives the streaming detector's clustered tick —
// one Index answering KDist, then Cluster at the eps the k-dist list
// picks, then Cluster again at a fuzzed eps — against the naive KDist
// and refCluster. Dimensionality runs 1..12, mostly past the grid
// cutoff, so the shared pairwise-distance matrix is read by both stages;
// coordinates include NaN and ±Inf, whose rows take the sorted k-dist
// fallback and whose diagonals are NaN. Wired into make fuzz-smoke.
func FuzzIndexSharedPass(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18}, uint8(5), 0.5, uint8(2))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 10, 10, 10, 10, 10, 10, 254, 20, 20, 20, 20, 20}, uint8(5), 1.0, uint8(1))
	f.Add([]byte{255, 0, 128, 64, 32, 16, 8, 4, 2, 1, 9, 9, 253, 253, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7}, uint8(11), 2.0, uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, dim uint8, eps float64, minPts uint8) {
		d := 1 + int(dim%12)
		if len(raw) < d {
			return
		}
		n := min(len(raw)/d, 512)
		pts := make([]Point, n)
		for i := range pts {
			p := make(Point, d)
			for j := range p {
				switch b := raw[i*d+j]; b {
				case 253:
					p[j] = math.Inf(-1)
				case 254:
					p[j] = math.NaN()
				case 255:
					p[j] = math.Inf(1)
				default:
					p[j] = float64(b) / 8
				}
			}
			pts[i] = p
		}
		k := int(minPts%8) + 1

		ix := NewIndex(pts)
		defer ix.Release()
		wantK := KDist(pts, k)
		gotK := ix.KDist(nil, k)
		if !float64sIdentical(gotK, wantK) {
			t.Fatalf("k-dist diverges (d=%d n=%d k=%d)\n got=%v\nwant=%v", d, n, k, gotK, wantK)
		}
		tickEps := max(wantK[n-1]/4, 1.5*wantK[n/2])
		for _, e := range []float64{tickEps, eps} {
			want := refCluster(pts, e, k)
			got := ix.Cluster(nil, e, k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("labels diverge (d=%d n=%d eps=%g k=%d)\n got=%v\nwant=%v", d, n, e, k, got, want)
			}
		}
	})
}
