package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metricDef names one reported metric. The two tables below are the
// source of truth that BENCHMARK.json mirrors (a test keeps them in
// step).
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are reported by every untraced run, on every workload. Each
// is a figure a user of the daemon sees; which request it times depends
// on the workload (README.md has the table).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
}

// perLayer are reported by every traced run. A layer a workload leaves
// idle reports 0.
var perLayer = []metricDef{
	{"server.explain_hot_us", "us", "lower"},
	{"server.render_us", "us", "lower"},
	{"server.ingest_us_per_chunk", "us", "lower"},
	{"http.overhead_us", "us", "lower"},
	{"collector.decode_us_per_chunk", "us", "lower"},
	{"collector.upload_decode_ms", "ms", "lower"},
	{"ingest.ingest_us_per_chunk", "us", "lower"},
	{"ingest.ticks", "count", "higher"},
	{"ingest.shed", "count", "lower"},
	{"detect.append_us_per_chunk", "us", "lower"},
	{"detect.tick_p50_ms", "ms", "lower"},
	{"detect.tick_p99_ms", "ms", "lower"},
	{"detect.clustered_tick_ratio", "ratio", "lower"},
	{"detect.selected_attrs_mean", "count", "lower"},
	{"detect.alert_recall", "ratio", "higher"},
	{"detect.false_alerts", "count", "lower"},
	{"dbscan.kdist_ms", "ms", "lower"},
	{"dbscan.cluster_ms", "ms", "lower"},
	{"dbscan.points", "count", "lower"},
	{"dbscan.dims", "count", "lower"},
	{"core.prewarm_ms", "ms", "lower"},
	{"core.generate_ms", "ms", "lower"},
	{"core.predicates", "count", "lower"},
	{"causal.rank_ms", "ms", "lower"},
	{"causal.models", "count", "lower"},
	{"causal.cause_top1", "ratio", "higher"},
	{"analyzer.diagnose_cold_ms", "ms", "lower"},
	{"analyzer.diagnose_reuse_us", "us", "lower"},
	{"diagcache.hit_ratio", "ratio", "higher"},
	{"diagcache.evictions", "count", "lower"},
	{"store.put_model_ms", "ms", "lower"},
	{"store.put_dataset_ms", "ms", "lower"},
	{"store.wal_bytes_per_learn", "bytes", "lower"},
	{"store.open_ms", "ms", "lower"},
	{"trace.throughput_per_s", "1/s", "higher"},
	{"trace.latency_p50_ms", "ms", "lower"},
	{"trace.latency_p90_ms", "ms", "lower"},
}

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// samples collects durations of one kind of operation.
type samples []time.Duration

// tailSupported reports whether the q-quantile of n samples has at
// least minTail samples beyond it.
func tailSupported(n int, q float64) bool {
	return n > 0 && n-rank(n, q) >= minTail
}

// rank is the 1-based nearest-rank position of the q-quantile.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// quantile returns the nearest-rank q-quantile in milliseconds, or 0
// without samples.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return ms(c[rank(len(c), q)-1])
}

// highestSupported returns the highest of the conventional reporting
// quantiles that keeps minTail samples beyond it, or 0.5 when none
// does.
func highestSupported(n int) float64 {
	for _, q := range []float64{0.999, 0.99, 0.95, 0.9, 0.8, 0.75} {
		if tailSupported(n, q) {
			return q
		}
	}
	return 0.5
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// medianF is the median of xs (0 when empty).
func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

// finite maps NaN and infinities, which JSON cannot carry, to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// outcome is what a workload hands back to run.
type outcome struct {
	attempted int64
	failed    int64
	failures  []string
	e2e       map[string]float64
	layers    map[string]float64
	// reportLines are the workload's named figures, printed before the
	// result line of an untraced run.
	reportLines []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
}

func (o *outcome) fail(format string, args ...any) {
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) reportf(format string, args ...any) {
	o.reportLines = append(o.reportLines, fmt.Sprintf(format, args...))
}

// latency reports a timing as its median and the highest percentile the
// sample supports, with the sample count.
func (o *outcome) latency(name string, s samples) {
	q := highestSupported(len(s))
	if q == 0.5 {
		o.reportf("%s p50=%.4fms n=%d", name, s.quantile(0.5), len(s))
		return
	}
	o.reportf("%s p50=%.4fms p%g=%.4fms n=%d", name, s.quantile(0.5), q*100, s.quantile(q), len(s))
}

// timeline is a timed phase's operations: when each completed (since
// the phase began), its round trip, and the work it completed (rows or
// requests; 0 when it failed).
type timeline struct {
	at   []time.Duration
	rtt  samples
	work []float64
}

func (tl *timeline) add(at, rtt time.Duration, work float64) {
	tl.at = append(tl.at, at)
	tl.rtt = append(tl.rtt, rtt)
	tl.work = append(tl.work, work)
}

func (tl *timeline) merge(o *timeline) {
	tl.at = append(tl.at, o.at...)
	tl.rtt = append(tl.rtt, o.rtt...)
	tl.work = append(tl.work, o.work...)
}

// segments is how many equal parts of a timed phase the end-to-end
// throughput and latencies are medians over: host contention that slows
// one or two parts of a run moves them little.
const segments = 5

// segmented splits a phase of the given length into equal parts and
// returns the medians over the parts of their throughput, p50 and p90,
// and the sample count of the smallest part.
func (tl *timeline) segmented(elapsed time.Duration) (thr, p50, p90 float64, fewest int) {
	parts := make([]samples, segments)
	work := make([]float64, segments)
	for i, at := range tl.at {
		k := min(int(int64(at)*segments/int64(elapsed)), segments-1)
		parts[k] = append(parts[k], tl.rtt[i])
		work[k] += tl.work[i]
	}
	var thrs, p50s, p90s []float64
	fewest = len(tl.at)
	for k, part := range parts {
		thrs = append(thrs, work[k]/(elapsed.Seconds()/segments))
		p50s = append(p50s, part.quantile(0.5))
		p90s = append(p90s, part.quantile(0.9))
		fewest = min(fewest, len(part))
	}
	return medianF(thrs), medianF(p50s), medianF(p90s), fewest
}

// setLatencies fills the shared end-to-end figures from a phase's
// timeline (the p90 is reported by traced runs only), failing the run
// when a part is too small for its p90.
func (o *outcome) setLatencies(tl *timeline, elapsed time.Duration) {
	thr, p50, p90, fewest := tl.segmented(elapsed)
	o.e2e["throughput_per_s"] = thr
	o.e2e["latency_p50_ms"] = p50
	o.e2e["latency_p90_ms"] = p90
	if need := minSamples(0.9); fewest < need {
		o.fail("latency_p90_ms: a fifth of the phase holds %d samples; its p90 needs %d", fewest, need)
	}
}

// minSamples is the smallest sample count whose q-quantile has minTail
// samples beyond it.
func minSamples(q float64) int {
	n := 1
	for !tailSupported(n, q) {
		n++
	}
	return n
}

// requireTail records a failed check when a percentile the run reports
// as a metric lacks minTail samples beyond it.
func (o *outcome) requireTail(name string, s samples, q float64) {
	if !tailSupported(len(s), q) {
		o.fail("%s: p%g of %d samples has fewer than %d samples beyond it", name, q*100, len(s), minTail)
	}
}
