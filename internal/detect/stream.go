package detect

import (
	"math"
	"sort"

	"dbsherlock/internal/core"
	"dbsherlock/internal/dbscan"
	"dbsherlock/internal/metrics"
	"dbsherlock/internal/stats"
)

// Stream is the incremental counterpart of Detect for an always-on
// monitor: rows are appended as they arrive, a sliding window of the
// last windowCap rows is kept, and Detect answers over the current
// window with output byte-identical to running the batch Detect on a
// snapshot of it (pinned by golden tests).
//
// The batch pipeline recomputes everything per pass: per-attribute
// normalization, the Equation (4) sliding-median sweep, and the DBSCAN
// point set. Stream instead keeps per-attribute state across ticks, all
// of it over raw values: monotonic min/max deques, the sorted multiset
// of the window (updated by one in-place merge per tick), the sorted
// tail of the last tau rows, and deques of candidate tau-window medians
// held as raw middle order statistics. Equation (2) with finite
// extremes and span is monotone non-decreasing under IEEE rounding, so
// sorting commutes with normalization: every median the batch pipeline
// takes is one or two raw order statistics normalized and interpolated
// exactly as stats.MedianSorted does. None of the state therefore
// depends on the window's extremes, and a tick that moves them costs
// the same as one that does not: the sweep continues over the new rows
// and only the candidates — windows whose middle values no later window
// matches or beats in both (below, for the lowest median; above, for
// the highest) — are normalized. The potential-power maximum over window
// medians is attained at the lowest or highest median, and monotonicity
// keeps a window that attains it among the candidates. A window with
// infinite extremes or an overflowing span normalizes every value to 0
// or NaN, so its potential power is 0 without any sweep.
//
// Stream is not safe for concurrent use; serialize Append and Detect.
type Stream struct {
	p       Params
	tau     int // effective sliding-window length (>= 1)
	cap     int // window capacity in rows
	workers int

	names []string
	attrs []attrStream

	total int // rows ever appended; window is absolute rows [total-rows, total)
	rows  int // current window length: min(total, cap)

	// Reused per-tick scratch. Detect's Result aliases region and
	// selected; it is valid only until the next Detect call.
	flat     []float64
	pts      []dbscan.Point
	lk       []float64
	labels   []int
	sizes    []int
	selIdx   []int
	selected []string
	region   *metrics.Region
}

// idxVal is one extremes entry: a raw value tagged with its absolute
// row, so expired entries can be popped from the front as the window
// slides.
type idxVal struct {
	idx int
	v   float64
}

// extremes is a monotonic deque over the raw window whose front is its
// minimum (pushMin) or maximum (pushMax). Strict-inequality pops keep
// the first-encountered of equal extremes, so the front is bitwise what
// stats.MinMax returns. Expired entries are skipped by advancing head
// and compacted in place once they make up half the buffer, so a deque
// that has reached its working size never reallocates.
type extremes struct {
	buf  []idxVal
	head int
}

// expire drops the entries from rows before lo.
func (d *extremes) expire(lo int) {
	h := d.head
	for h < len(d.buf) && d.buf[h].idx < lo {
		h++
	}
	if h > len(d.buf)/2 {
		d.buf = d.buf[:copy(d.buf, d.buf[h:])]
		h = 0
	}
	d.head = h
}

// front returns the window extreme; ok is false for a window of NaNs.
func (d *extremes) front() (v float64, ok bool) {
	if d.head == len(d.buf) {
		return 0, false
	}
	return d.buf[d.head].v, true
}

func (d *extremes) pushMin(r int, x float64) {
	n := len(d.buf)
	for n > d.head && d.buf[n-1].v > x {
		n--
	}
	d.buf = append(d.buf[:n], idxVal{r, x})
}

func (d *extremes) pushMax(r int, x float64) {
	n := len(d.buf)
	for n > d.head && d.buf[n-1].v < x {
		n--
	}
	d.buf = append(d.buf[:n], idxVal{r, x})
}

// midPair is one tau-window's median as raw order statistics: the
// middle value of an odd-sized window (lo == hi), or the two middle
// values of an even-sized one, which its median interpolates. idx is
// the window's absolute end row.
type midPair struct {
	idx    int
	lo, hi float64
	even   bool
}

// middle returns the middle order statistics of sorted non-empty s.
func middle(s []float64) midPair {
	n := len(s)
	return midPair{lo: s[(n-1)/2], hi: s[n/2], even: n%2 == 0}
}

// dominates reports whether m's median is at least o's under every
// finite-span normalization: Equation (2) and the interpolation are
// monotone in each middle value, so a pair no lower in both is no lower
// after normalizing. Odd and even pairs are not compared: an odd median
// is the normalized value itself, not an interpolation of it with
// itself, and the two can differ by rounding.
func (m midPair) dominates(o midPair) bool {
	return m.even == o.even && m.lo >= o.lo && m.hi >= o.hi
}

// candidates holds the tau-windows that may attain the lowest
// (pushLow) or highest (pushHigh) median: each window no later window
// dominates from that side. A later window expires later, so a
// dominated one can never be needed again. Entries are in row order and
// compacted like extremes.
type candidates struct {
	buf  []midPair
	head int
}

func (d *candidates) live() []midPair { return d.buf[d.head:] }
func (d *candidates) reset()          { d.buf, d.head = d.buf[:0], 0 }

// expire drops the windows ending before row lo.
func (d *candidates) expire(lo int) {
	h := d.head
	for h < len(d.buf) && d.buf[h].idx < lo {
		h++
	}
	if h > len(d.buf)/2 {
		d.buf = d.buf[:copy(d.buf, d.buf[h:])]
		h = 0
	}
	d.head = h
}

func (d *candidates) pushLow(m midPair) {
	n := len(d.buf)
	for n > d.head && d.buf[n-1].dominates(m) {
		n--
	}
	d.buf = append(d.buf[:n], m)
}

func (d *candidates) pushHigh(m midPair) {
	n := len(d.buf)
	for n > d.head && m.dominates(d.buf[n-1]) {
		n--
	}
	d.buf = append(d.buf[:n], m)
}

// attrStream is the incremental detection state of one numeric
// attribute. Everything but the last normalization and pp is kept on
// raw values, so none of it depends on the window's extremes.
type attrStream struct {
	ring    []float64 // raw values; absolute row r lives at ring[r%cap]
	evicted []float64 // non-NaN raw values evicted since the last Detect; merge scratch during it

	// The raw window's extremes, maintained on every append.
	minDq, maxDq extremes

	sorted []float64 // sorted non-NaN raw values of the window
	tail   []float64 // sorted non-NaN raw values of the last tau rows

	// Candidates for the lowest and highest tau-window median. A
	// tau-window of NaNs has no median and no entry.
	lowMids, highMids candidates

	ok       bool // the window has a non-NaN value; min and max are its extremes
	min, max float64

	prevRows, prevTotal int
	pp                  float64 // potential power as of the last Detect
}

// NewStream builds a streaming detector over a window of windowCap rows.
// workers bounds the per-attribute fan-out of each Detect (<= 0 means
// one per CPU); the output is byte-identical for any worker count. The
// schema is fixed by the first Append; only numeric attributes
// participate, as in Detect.
func NewStream(p Params, windowCap, workers int) *Stream {
	if windowCap <= 0 {
		windowCap = 1
	}
	tau := p.Tau
	if tau <= 0 {
		tau = 1 // mirrors SlidingWindowMedians' tau floor
	}
	return &Stream{p: p, tau: tau, cap: windowCap, workers: core.ResolveWorkers(workers)}
}

// Rows returns the number of rows currently in the window.
func (s *Stream) Rows() int { return s.rows }

// Append ingests a chunk of aligned statistics. The caller (the
// monitor) has already validated schema and timestamps; Append only
// consumes the numeric columns, in dataset order.
func (s *Stream) Append(ds *metrics.Dataset) {
	if ds == nil || ds.Rows() == 0 {
		return
	}
	if s.attrs == nil {
		for i := 0; i < ds.NumAttrs(); i++ {
			if ds.ColumnAt(i).Attr.Type == metrics.Numeric {
				s.names = append(s.names, ds.ColumnAt(i).Attr.Name)
				s.attrs = append(s.attrs, attrStream{ring: make([]float64, s.cap)})
			}
		}
	}
	n := ds.Rows()
	k := 0
	for i := 0; i < ds.NumAttrs(); i++ {
		col := ds.ColumnAt(i)
		if col.Attr.Type != metrics.Numeric {
			continue
		}
		s.attrs[k].push(col.Num, s.total, s.cap)
		k++
	}
	s.total += n
	s.rows = s.total
	if s.rows > s.cap {
		s.rows = s.cap
	}
}

// push appends raw values for absolute rows [total, total+len(vals)),
// capturing evicted values and maintaining the raw min/max deques.
func (a *attrStream) push(vals []float64, total, cap int) {
	for i, x := range vals {
		r := total + i
		// Keep the value about to be overwritten so Detect can merge it
		// out of the sorted window. Past a whole window of evictions
		// Detect re-sorts from the ring instead, so stop collecting.
		if old := a.ring[r%cap]; r >= cap && len(a.evicted) < cap && !math.IsNaN(old) {
			a.evicted = append(a.evicted, old)
		}
		a.ring[r%cap] = x
		if !math.IsNaN(x) {
			lo := r + 1 - cap // oldest row still in the window after this push
			a.minDq.expire(lo)
			a.maxDq.expire(lo)
			a.minDq.pushMin(r, x)
			a.maxDq.pushMax(r, x)
		}
	}
}

// norm is Equation (2) on one value under the window extremes of the
// last Detect — the same formula stats.Normalize applies, preserving
// NaN.
func (a *attrStream) norm(x float64) float64 {
	if math.IsNaN(x) {
		return math.NaN()
	}
	if !a.ok {
		return 0
	}
	span := a.max - a.min
	if span == 0 {
		return 0
	}
	return (x - a.min) / span
}

// normPoint is norm with Detect's NaN→0 mapping for cluster points.
func (a *attrStream) normPoint(x float64) float64 {
	v := a.norm(x)
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// Detect runs the Section 7 pipeline over the current window. The
// result is byte-identical to Detect(snapshot, p) on a dataset holding
// the same rows. Result.Abnormal and Result.SelectedAttrs alias
// Stream-owned scratch: they are valid until the next Detect call, and
// callers that retain them (the monitor's alert path) must clone.
func (s *Stream) Detect() Result {
	rows := s.rows
	if s.region == nil || s.region.Len() != rows {
		s.region = metrics.NewRegion(rows)
	} else {
		s.region.Reset()
	}
	res := Result{Abnormal: s.region}
	if rows == 0 {
		return res
	}
	lo := s.total - rows

	core.ForEach(len(s.attrs), s.workers, func(k int) {
		s.attrs[k].update(lo, rows, s.tau, s.total, s.cap)
	})

	s.selIdx = s.selIdx[:0]
	s.selected = s.selected[:0]
	for k := range s.attrs {
		if s.attrs[k].pp > s.p.PotentialThreshold {
			s.selIdx = append(s.selIdx, k)
			s.selected = append(s.selected, s.names[k])
		}
	}
	if len(s.selIdx) == 0 {
		return res
	}
	res.SelectedAttrs = s.selected

	// Columnar point set: one flat backing array, points as subslices.
	d := len(s.selIdx)
	if need := rows * d; cap(s.flat) < need {
		s.flat = make([]float64, need)
	}
	flat := s.flat[:rows*d]
	for c, k := range s.selIdx {
		a := &s.attrs[k]
		for i := 0; i < rows; i++ {
			flat[i*d+c] = a.normPoint(a.ring[(lo+i)%s.cap])
		}
	}
	if cap(s.pts) < rows {
		s.pts = make([]dbscan.Point, rows)
	}
	pts := s.pts[:rows]
	for i := range pts {
		pts[i] = flat[i*d : (i+1)*d]
	}

	// One Index for both stages: on the grid-less path (more than ~5
	// selected attributes at window scale) k-dist and DBSCAN read the
	// same pairwise distances, computed once.
	ix := dbscan.NewIndex(pts)
	defer ix.Release()
	s.lk = ix.KDist(s.lk, s.p.MinPts)
	eps := s.lk[rows-1] / 4
	if floor := 1.5 * s.lk[rows/2]; floor > eps {
		eps = floor
	}
	if eps <= 0 {
		return res
	}
	res.Epsilon = eps

	s.labels = ix.Cluster(s.labels, eps, s.p.MinPts)
	// Dense cluster sizes instead of dbscan.Sizes' map: no per-tick
	// allocation, same counts.
	s.sizes = s.sizes[:0]
	for _, l := range s.labels {
		if l == dbscan.Noise {
			continue
		}
		for len(s.sizes) <= l {
			s.sizes = append(s.sizes, 0)
		}
		s.sizes[l]++
	}
	small := int(s.p.SmallClusterFraction * float64(rows))
	for i, l := range s.labels {
		if l == dbscan.Noise || s.sizes[l] < small {
			s.region.Add(i)
		}
	}
	return res
}

// update brings one attribute's potential power to the current window
// [lo, lo+rows).
func (a *attrStream) update(lo, rows, tau, total, cap int) {
	added := total - a.prevTotal
	prevRows := a.prevRows
	a.prevRows, a.prevTotal = rows, total
	a.mergeWindow(lo, rows, added, total, cap)
	if prevRows >= tau && added <= rows-tau {
		// Continue the sweep over the appended rows. Window positions
		// are keyed by their absolute end row; the first surviving
		// position ends at lo+tau-1, and every tau-window predecessor
		// of an appended row is still in the ring.
		a.lowMids.expire(lo + tau - 1)
		a.highMids.expire(lo + tau - 1)
		for r := total - added; r < total; r++ {
			a.slide(r, a.ring[(r-tau)%cap], a.ring[r%cap])
		}
	} else {
		a.sweep(lo, rows, tau, cap)
	}

	// NaN-only pushes don't pop expired entries; do it before reading.
	a.minDq.expire(lo)
	a.maxDq.expire(lo)
	a.min, a.ok = a.minDq.front()
	a.max, _ = a.maxDq.front()
	if span := a.max - a.min; !(span > 0 && span <= math.MaxFloat64) {
		// All-NaN window → overall median NaN; constant window → every
		// normalized value 0; an infinite extreme or an overflowing span
		// → every normalized value 0 or NaN. The batch pipeline reports
		// zero potential in each case.
		a.pp = 0
		return
	}

	// Equation (2) is monotone here, so the batch sweep's maximum of
	// |overall - median| over all windows is attained at its lowest or
	// highest window median, and a dominating candidate attains it too.
	overall := a.normMedian(middle(a.sorted))
	pp := 0.0
	for _, m := range a.lowMids.live() {
		if d := math.Abs(overall - a.normMedian(m)); d > pp {
			pp = d
		}
	}
	for _, m := range a.highMids.live() {
		if d := math.Abs(overall - a.normMedian(m)); d > pp {
			pp = d
		}
	}
	a.pp = pp
}

// normMedian is stats.MedianSorted of the normalized window whose raw
// middle order statistics are m. With finite extremes and span,
// Equation (2) is monotone non-decreasing under IEEE rounding, so the
// normalized window sorts in the raw order and its middle elements are
// m's, normalized.
func (a *attrStream) normMedian(m midPair) float64 {
	if !m.even {
		return a.norm(m.lo)
	}
	mid := [2]float64{a.norm(m.lo), a.norm(m.hi)}
	return stats.MedianSorted(mid[:])
}

// mergeWindow brings the sorted window multiset up to date: one
// in-place merge that drops the evicted values and takes in the
// appended ones, or a full sort from the ring when the window turned
// over entirely since the last Detect.
func (a *attrStream) mergeWindow(lo, rows, added, total, cap int) {
	if added >= rows {
		a.sorted = a.sorted[:0]
		for i := 0; i < rows; i++ {
			if x := a.ring[(lo+i)%cap]; !math.IsNaN(x) {
				a.sorted = append(a.sorted, x)
			}
		}
		sort.Float64s(a.sorted)
		a.evicted = a.evicted[:0]
		return
	}
	// With added < rows <= cap every evicted value was kept and every
	// appended row is still in the ring.
	out := a.evicted
	sort.Float64s(out)
	buf := out
	for r := total - added; r < total; r++ {
		if x := a.ring[r%cap]; !math.IsNaN(x) {
			buf = append(buf, x)
		}
	}
	in := buf[len(out):]
	sort.Float64s(in)
	a.sorted = mergeSorted(subtractSorted(a.sorted, out), in)
	a.evicted = buf[:0]
}

// subtractSorted deletes one occurrence of each element of sorted del
// from sorted s, in place, moving the runs between deletions with one
// copy each. Every element of del must be in s.
func subtractSorted(s, del []float64) []float64 {
	if len(del) == 0 {
		return s
	}
	w := sort.SearchFloat64s(s, del[0])
	i := w
	for _, x := range del {
		j := i
		for s[j] < x {
			j++
		}
		w += copy(s[w:], s[i:j])
		i = j + 1
	}
	w += copy(s[w:], s[i:])
	return s[:w]
}

// mergeSorted merges sorted in into sorted s from the back, in place.
func mergeSorted(s, in []float64) []float64 {
	i := len(s) - 1
	s = append(s, in...)
	for j, w := len(in)-1, len(s)-1; j >= 0; w-- {
		if i >= 0 && s[i] > in[j] {
			s[w] = s[i]
			i--
		} else {
			s[w] = in[j]
			j--
		}
	}
	return s
}

// sweep rebuilds the tau-window state over the whole window exactly as
// SlidingWindowMedians sweeps it, with tau clamped to the window length.
func (a *attrStream) sweep(lo, rows, tau, cap int) {
	a.tail = a.tail[:0]
	a.lowMids.reset()
	a.highMids.reset()
	effTau := min(tau, rows)
	for i := 0; i < effTau; i++ {
		if x := a.ring[(lo+i)%cap]; !math.IsNaN(x) {
			a.tail = stats.InsertSorted(a.tail, x)
		}
	}
	a.pushMid(lo + effTau - 1)
	for r := lo + effTau; r < lo+rows; r++ {
		a.slide(r, a.ring[(r-effTau)%cap], a.ring[r%cap])
	}
}

// slide moves the tau window to end at absolute row r, trading the raw
// value out of its first row for in of row r as SlidingWindowMedians
// does.
func (a *attrStream) slide(r int, out, in float64) {
	a.tail = stats.ShiftSorted(a.tail, out, in)
	a.pushMid(r)
}

// pushMid enters the median of the window ending at absolute row r into
// the candidate deques (a window of NaNs has none, as in the batch
// sweep, whose NaN medians never raise potential power).
func (a *attrStream) pushMid(r int) {
	if len(a.tail) == 0 {
		return
	}
	m := middle(a.tail)
	m.idx = r
	a.lowMids.pushLow(m)
	a.highMids.pushHigh(m)
}
