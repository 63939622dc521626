package dbscan

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestIndexSharedPass runs the detector's two stages on one Index —
// KDist, then Cluster at the k-dist eps rule and at other radii — and
// requires the naive reference's output at every shape, on both sides
// of the grid's dimensionality cutoff and with non-finite coordinates.
// On the grid-less path both stages must read the same matrix.
func TestIndexSharedPass(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{2, 31, 32, 200, 600} {
		for _, d := range []int{1, 3, 6, 12} {
			for _, poison := range []float64{0, math.NaN(), math.Inf(1)} {
				pts := genPoints(rng, n, d)
				if poison != 0 {
					pts[n/2][d-1] = poison
				}
				ix := NewIndex(pts)
				lk := ix.KDist(nil, 3)
				if want := KDist(pts, 3); !float64sIdentical(lk, want) {
					t.Fatalf("n=%d d=%d poison=%v: k-dist diverges", n, d, poison)
				}
				pw := ix.pw
				if ix.gridOK == (pw != nil) && poison == 0 {
					t.Fatalf("n=%d d=%d: matrix built=%v on grid-usable=%v finite points", n, d, pw != nil, ix.gridOK)
				}
				for _, eps := range []float64{max(lk[n-1]/4, 1.5*lk[n/2]), 0.4, 0, math.Inf(1)} {
					if got, want := ix.Cluster(nil, eps, 3), refCluster(pts, eps, 3); !reflect.DeepEqual(got, want) {
						t.Fatalf("n=%d d=%d poison=%v eps=%g: labels diverge", n, d, poison, eps)
					}
					if pw != nil && ix.pw != pw {
						t.Fatalf("n=%d d=%d: Cluster recomputed the matrix KDist built", n, d)
					}
				}
				ix.Release()
				if ix.pw != nil {
					t.Fatal("Release kept the matrix")
				}
			}
		}
	}
}

// TestIndexAboveMatrixBound is the golden case past maxMatrixPoints: no
// matrix is kept and every row is recomputed on read, which must still
// match the naive reference, NaN row included.
func TestIndexAboveMatrixBound(t *testing.T) {
	n, d := maxMatrixPoints+76, 9
	pts := genPoints(rand.New(rand.NewSource(1100)), n, d)
	pts[7][3] = math.NaN()
	pts[n-1][0] = math.Inf(-1)
	ix := NewIndex(pts)
	defer ix.Release()
	lk := ix.KDist(nil, 3)
	if want := KDist(pts, 3); !float64sIdentical(lk, want) {
		t.Fatal("k-dist diverges above the matrix bound")
	}
	if ix.pw == nil || ix.pw.full || len(ix.pw.dist) != n {
		t.Fatal("expected one recomputed scratch row, not a matrix, above the bound")
	}
	eps := max(lk[n-1]/4, 1.5*lk[n/2])
	if got, want := ix.Cluster(nil, eps, 3), refCluster(pts, eps, 3); !reflect.DeepEqual(got, want) {
		t.Fatal("labels diverge above the matrix bound")
	}
}

// TestPairwiseSymmetric pins the exactness argument: the mirrored entry
// is bitwise the distance computed the other way round.
func TestPairwiseSymmetric(t *testing.T) {
	pts := genPoints(rand.New(rand.NewSource(3)), 97, 7)
	pts[5][2] = math.Inf(1)
	pw := new(pairwise)
	pw.reset(pts)
	for i := range pts {
		row := pw.row(i)
		for j := range pts {
			if math.Float64bits(row[j]) != math.Float64bits(Distance(pts[i], pts[j])) {
				t.Fatalf("row %d col %d: %v, Distance %v", i, j, row[j], Distance(pts[i], pts[j]))
			}
		}
	}
}
