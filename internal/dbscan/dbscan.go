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
// caller running detection every tick can reuse one buffer.
func KDistInto(dst []float64, points []Point, k int) []float64 {
	if len(points) == 0 || k <= 0 {
		return nil
	}
	if cap(dst) < len(points) {
		dst = make([]float64, len(points))
	}
	dst = dst[:len(points)]
	sc := clusterPool.Get().(*clusterScratch)
	defer clusterPool.Put(sc)
	if !gridUsable(len(points), len(points[0])) {
		return kdistAllNaive(dst, points, k, &sc.kd)
	}
	cell, ok := kdCell(points, k)
	if !ok {
		if allIdentical(points) {
			// Every pairwise distance is zero, so every k-dist is zero.
			for i := range dst {
				dst[i] = 0
			}
			return dst
		}
		return kdistAllNaive(dst, points, k, &sc.kd)
	}
	g := getGrid()
	defer putGrid(g)
	if !g.build(points, cell) {
		return kdistAllNaive(dst, points, k, &sc.kd)
	}
	for i := range points {
		dst[i] = g.kdist(points, i, k, &sc.kd)
	}
	sort.Float64s(dst)
	return dst
}

// kdistAllNaive fills dst with the naive O(n²) k-dist list.
func kdistAllNaive(dst []float64, points []Point, k int, sc *kdScratch) []float64 {
	for i := range points {
		dst[i] = kdistScan(points, i, k, sc)
	}
	sort.Float64s(dst)
	return dst
}

// kdistScan is points[i]'s k-dist by a scan over all points that keeps
// only the k smallest distances (insertBest) instead of sorting all
// n-1. Distances are never -0, so for non-NaN inputs the k-th value is
// bitwise the one a full sort yields. sort.Float64s orders NaN first
// and not stably, so a NaN distance sends the point to kdistSorted.
func kdistScan(points []Point, i, k int, sc *kdScratch) float64 {
	best := sc.best[:0]
	for j := range points {
		if j == i {
			continue
		}
		d := Distance(points[i], points[j])
		if math.IsNaN(d) {
			sc.best = best
			return kdistSorted(points, i, k, sc)
		}
		best = insertBest(best, d, k)
	}
	sc.best = best
	if len(best) == 0 {
		return 0
	}
	return best[min(k, len(best))-1]
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
// coordinates, enough points to amortize the build); otherwise the
// naive O(n²) scan is used. Both paths produce identical labels —
// the grid returns neighbour lists in the same ascending order the
// naive scan does, and golden + fuzz tests pin the equivalence.
func Cluster(points []Point, eps float64, minPts int) []int {
	return ClusterInto(nil, points, eps, minPts)
}

// ClusterInto is Cluster writing labels into dst (grown as needed), so
// a caller running detection every tick can reuse one buffer.
func ClusterInto(dst []int, points []Point, eps float64, minPts int) []int {
	const unvisited = -2
	if cap(dst) < len(points) || dst == nil {
		dst = make([]int, len(points))
	}
	labels := dst[:len(points)]
	for i := range labels {
		labels[i] = unvisited
	}
	if len(points) == 0 {
		return labels
	}

	sc := clusterPool.Get().(*clusterScratch)
	defer clusterPool.Put(sc)

	var g *grid
	if gridUsable(len(points), len(points[0])) {
		cg := getGrid()
		if cg.build(points, eps) {
			cg.buildOffsets()
			g = cg
		}
		defer putGrid(cg)
	}
	// neighbours appends the indices within eps of point i (including i)
	// in ascending order, identically on both paths.
	neighbours := func(i int, out []int32) []int32 {
		if g != nil {
			return g.neighbours(points, i, eps, out)
		}
		for j := range points {
			if Distance(points[i], points[j]) <= eps {
				out = append(out, int32(j))
			}
		}
		return out
	}
	next := 0
	for i := range points {
		if labels[i] != unvisited {
			continue
		}
		sc.nbr = neighbours(i, sc.nbr[:0])
		if len(sc.nbr) < minPts {
			labels[i] = Noise
			continue
		}
		id := next
		next++
		labels[i] = id
		seeds := append(sc.seeds[:0], sc.nbr...)
		// Expand the cluster over density-reachable points.
		for q := 0; q < len(seeds); q++ {
			j := seeds[q]
			if labels[j] == Noise {
				labels[j] = id // border point
			}
			if labels[j] != unvisited {
				continue
			}
			labels[j] = id
			sc.nbr = neighbours(int(j), sc.nbr[:0])
			if len(sc.nbr) >= minPts {
				seeds = append(seeds, sc.nbr...)
			}
		}
		sc.seeds = seeds
	}
	// Normalize any remaining unvisited (unreachable) to noise; cannot
	// happen with the loop above but keeps the invariant explicit.
	for i, l := range labels {
		if l == unvisited {
			labels[i] = Noise
		}
	}
	return labels
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
