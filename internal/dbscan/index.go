package dbscan

import (
	"math"
	"sort"
	"sync"
)

// This file holds the one implementation behind KDistInto, ClusterInto
// and the streaming detector's clustered tick. An Index answers both
// queries the Section 7 detector asks of one point set — the k-dist
// list that picks eps, then DBSCAN with that eps — through the uniform
// grid when it applies (grid.go) and otherwise through the rows of the
// point set's pairwise-distance matrix. The matrix is computed at most
// once per Index, by symmetry, and both queries read it, so a clustered
// tick pays one distance pass instead of two full n² scans.

// maxMatrixPoints bounds the pooled pairwise-distance matrix: n² float64s,
// 8 MiB at 1024 points. Above it a row is recomputed on every read (the
// plain O(n)-per-point scan); the grid-less regime is meant for windows
// of a few hundred rows, and the grid has its own limits.
const maxMatrixPoints = 1024

// Index answers k-dist and DBSCAN queries over one point set. Queries on
// the grid-less path share one pooled pairwise-distance matrix, computed
// on first use; Release returns it to the pool, so an Index holds the
// matrix only between its first grid-less query and Release. The zero
// Index is an empty point set. An Index is not safe for concurrent use,
// and the points must not change until Release.
type Index struct {
	points []Point
	gridOK bool      // gridUsable for this point count and dimensionality
	pw     *pairwise // pooled; nil until a grid-less query needs it
}

// NewIndex returns an Index over points.
func NewIndex(points []Point) Index {
	return Index{points: points, gridOK: len(points) > 0 && gridUsable(len(points), len(points[0]))}
}

// Release returns the Index's distance matrix, if any, to the pool. The
// Index stays usable; a later grid-less query recomputes the matrix.
func (ix *Index) Release() {
	if ix.pw != nil {
		ix.pw.points = nil
		pairPool.Put(ix.pw)
		ix.pw = nil
	}
}

// pairs returns the Index's distance rows, computing the matrix on first
// use.
func (ix *Index) pairs() *pairwise {
	if ix.pw == nil {
		ix.pw = pairPool.Get().(*pairwise)
		ix.pw.reset(ix.points)
	}
	return ix.pw
}

// KDist is KDistInto over the Index's points, reading the shared
// distance matrix on the grid-less path.
func (ix *Index) KDist(dst []float64, k int) []float64 {
	points := ix.points
	if len(points) == 0 || k <= 0 {
		return nil
	}
	if cap(dst) < len(points) {
		dst = make([]float64, len(points))
	}
	dst = dst[:len(points)]
	sc := clusterPool.Get().(*clusterScratch)
	defer clusterPool.Put(sc)
	if ix.gridOK {
		if cell, ok := kdCell(points, k); ok {
			g := getGrid()
			defer putGrid(g)
			if g.build(points, cell) {
				for i := range points {
					dst[i] = g.kdist(points, i, k, &sc.kd)
				}
				sort.Float64s(dst)
				return dst
			}
		} else if allIdentical(points) {
			// Every pairwise distance is zero, so every k-dist is zero.
			clear(dst)
			return dst
		}
	}
	pw := ix.pairs()
	for i := range points {
		dst[i] = kdistRow(points, pw.row(i), i, k, &sc.kd)
	}
	sort.Float64s(dst)
	return dst
}

// Cluster is ClusterInto over the Index's points, reading the shared
// distance matrix on the grid-less path.
func (ix *Index) Cluster(dst []int, eps float64, minPts int) []int {
	points := ix.points
	if cap(dst) < len(points) || dst == nil {
		dst = make([]int, len(points))
	}
	labels := dst[:len(points)]
	if len(points) == 0 {
		return labels
	}
	sc := clusterPool.Get().(*clusterScratch)
	defer clusterPool.Put(sc)
	if ix.gridOK {
		g := getGrid()
		defer putGrid(g)
		if g.build(points, eps) {
			g.buildOffsets()
			expand(labels, minPts, sc, func(i int, out []int32) []int32 {
				return g.neighbours(points, i, eps, out)
			})
			return labels
		}
	}
	pw := ix.pairs()
	expand(labels, minPts, sc, func(i int, out []int32) []int32 {
		return pw.neighbours(i, eps, out)
	})
	return labels
}

// expand is DBSCAN's labelling loop over a neighbour function that
// appends the indices within eps of point i (including i, when it is
// within eps of itself) in ascending order. Both neighbour sources
// produce exactly the list of the naive scan, which is what keeps every
// path label-identical to the reference.
func expand(labels []int, minPts int, sc *clusterScratch, neighbours func(i int, out []int32) []int32) {
	const unvisited = -2
	for i := range labels {
		labels[i] = unvisited
	}
	next := 0
	for i := range labels {
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
}

// pairwise serves rows of a point set's distance matrix, row i holding
// point i's distance to every point, its own included. Up to
// maxMatrixPoints points the whole matrix is computed once, one Distance
// call per unordered pair plus the diagonal: a−b is exactly −(b−a) under
// IEEE round-to-nearest, so the squares and their sum in coordinate
// order are bitwise the same either way round: the mirrored entry is
// the distance the naive scan computes, or a NaN where that is a NaN:
// any NaN fails the eps test, and a k-dist row holding one recomputes
// its distances (kdistRow). The diagonal is computed,
// not assumed: Distance(p, p) is NaN for a point with a NaN or ±Inf
// coordinate. Above the bound, each row is recomputed on read into one
// scratch row.
type pairwise struct {
	points []Point
	full   bool
	dist   []float64 // n×n row-major when full, one scratch row otherwise
}

// pairPool recycles the matrices: at most one is live per Index in use,
// so memory is bounded by the number of concurrently running queries,
// not by the number of point sets (streams) that ever clustered.
var pairPool = sync.Pool{New: func() any { return new(pairwise) }}

func (pw *pairwise) reset(points []Point) {
	n := len(points)
	pw.points = points
	pw.full = n <= maxMatrixPoints
	size := n
	if pw.full {
		size = n * n
	}
	if cap(pw.dist) < size {
		pw.dist = make([]float64, size)
	}
	pw.dist = pw.dist[:size]
	if !pw.full {
		return
	}
	// Tile by tile, so the mirrored writes of a tile stay in cache.
	const tile = 32
	m := pw.dist
	for i0 := 0; i0 < n; i0 += tile {
		for j0 := i0; j0 < n; j0 += tile {
			for i := i0; i < min(i0+tile, n); i++ {
				p := points[i]
				if j0 == i0 {
					m[i*n+i] = Distance(p, p)
				}
				for j := max(j0, i+1); j < min(j0+tile, n); j++ {
					d := Distance(p, points[j])
					m[i*n+j] = d
					m[j*n+i] = d
				}
			}
		}
	}
}

// row returns point i's distance row. Above maxMatrixPoints it is
// valid only until the next call.
func (pw *pairwise) row(i int) []float64 {
	n := len(pw.points)
	if pw.full {
		return pw.dist[i*n : (i+1)*n]
	}
	return distRow(pw.dist, pw.points, i)
}

// neighbours appends the indices j with row(i)[j] <= eps, ascending.
func (pw *pairwise) neighbours(i int, eps float64, out []int32) []int32 {
	for j, d := range pw.row(i) {
		if d <= eps {
			out = append(out, int32(j))
		}
	}
	return out
}

// distRow fills row (len(points) long) with point i's distances to every
// point, in index order, and returns it.
func distRow(row []float64, points []Point, i int) []float64 {
	row = row[:len(points)]
	for j, q := range points {
		row[j] = Distance(points[i], q)
	}
	return row
}

// kdistRow is point i's k-dist from its distance row: the k smallest
// off-diagonal entries, kept by insertBest instead of sorting all n-1.
// Distances are never -0, so for non-NaN rows the k-th value is bitwise
// the one a full sort yields. sort.Float64s orders NaN first and not
// stably, so a row holding a NaN sends the point to kdistSorted.
func kdistRow(points []Point, row []float64, i, k int, sc *kdScratch) float64 {
	best := sc.best[:0]
	for j, d := range row {
		if len(best) == k && d >= best[k-1] || j == i {
			continue // not among the k smallest (NaN fails the test), or the diagonal
		}
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
