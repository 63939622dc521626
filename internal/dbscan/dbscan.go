// Package dbscan implements the DBSCAN density-based clustering
// algorithm of Ester et al. [25], which DBSherlock's automatic anomaly
// detection (paper Section 7) uses to separate anomalous time points
// from the bulk of normal behaviour. Only what the paper needs is
// provided: Euclidean distance, the k-dist list for choosing epsilon,
// and the clustering itself.
package dbscan

import (
	"math"
	"sort"
)

// Noise is the cluster id assigned to points in no cluster.
const Noise = -1

// Point is a point in d-dimensional space.
type Point []float64

// Distance returns the Euclidean distance between two points. Points of
// different dimensionality panic, as that is always a programming error.
func Distance(a, b Point) float64 {
	if len(a) != len(b) {
		panic("dbscan: dimension mismatch")
	}
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// KDist returns every point's distance to its k-th nearest neighbour
// (excluding itself), sorted ascending. The DBSCAN paper suggests
// inspecting this list to choose epsilon; DBSherlock uses
// eps = max(KDist)/4 with k = minPts.
//
// KDist is the naive O(n²) reference; KDistIndexed computes the same
// list through the uniform-grid index and is what the streaming
// detector calls every tick.
func KDist(points []Point, k int) []float64 {
	if len(points) == 0 || k <= 0 {
		return nil
	}
	out := make([]float64, 0, len(points))
	dists := make([]float64, 0, len(points)-1)
	for i := range points {
		dists = dists[:0]
		for j := range points {
			if i != j {
				dists = append(dists, Distance(points[i], points[j]))
			}
		}
		if len(dists) == 0 {
			out = append(out, 0)
			continue
		}
		sort.Float64s(dists)
		idx := k - 1
		if idx >= len(dists) {
			idx = len(dists) - 1
		}
		out = append(out, dists[idx])
	}
	sort.Float64s(out)
	return out
}

// KDistIndexed is KDist through the uniform-grid spatial index:
// identical output (pinned by golden tests), ~O(n) expected work
// instead of O(n² log n). Degenerate geometries — high dimensionality,
// non-finite coordinates, all-identical points — fall back to exact
// slower paths, so the result is always byte-identical to KDist.
func KDistIndexed(points []Point, k int) []float64 {
	return KDistInto(nil, points, k)
}

// KDistInto is KDistIndexed writing into dst (grown as needed), so a
// caller running detection every tick can reuse one buffer. A caller
// that clusters the same points next should use one Index for both, so
// the grid-less path computes the pairwise distances once.
func KDistInto(dst []float64, points []Point, k int) []float64 {
	ix := NewIndex(points)
	defer ix.Release()
	return ix.KDist(dst, k)
}

// kdistSorted is points[i]'s k-dist by fully sorting its distances: the
// reference behaviour of KDist, kept for point sets with NaN distances.
func kdistSorted(points []Point, i, k int, sc *kdScratch) float64 {
	dists := sc.dists[:0]
	for j := range points {
		if j != i {
			dists = append(dists, Distance(points[i], points[j]))
		}
	}
	sc.dists = dists
	if len(dists) == 0 {
		return 0
	}
	sort.Float64s(dists)
	return dists[min(k, len(dists))-1]
}

// Cluster runs DBSCAN and returns a cluster id per point: 0..n-1 for
// cluster members, Noise (-1) for noise points. A point is a core point
// if at least minPts points (including itself) lie within eps.
//
// Neighbour queries go through a uniform-grid index with cell size eps
// when the point set supports it (low dimensionality, finite
// coordinates, enough points to amortize the build); otherwise they
// read rows of the pairwise-distance matrix (see Index). Both paths
// produce identical labels — each returns neighbour lists in the same
// ascending order the naive scan does, and golden + fuzz tests pin the
// equivalence.
func Cluster(points []Point, eps float64, minPts int) []int {
	return ClusterInto(nil, points, eps, minPts)
}

// ClusterInto is Cluster writing labels into dst (grown as needed), so
// a caller running detection every tick can reuse one buffer.
func ClusterInto(dst []int, points []Point, eps float64, minPts int) []int {
	ix := NewIndex(points)
	defer ix.Release()
	return ix.Cluster(dst, eps, minPts)
}

// Sizes returns the number of points in each cluster id (noise
// excluded).
func Sizes(labels []int) map[int]int {
	out := make(map[int]int)
	for _, l := range labels {
		if l != Noise {
			out[l]++
		}
	}
	return out
}
