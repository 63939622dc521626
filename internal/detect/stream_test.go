package detect

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dbsherlock/internal/anomaly"
	"dbsherlock/internal/collector"
	"dbsherlock/internal/metrics"
	"dbsherlock/internal/workload"
)

// buildStreamTrace produces a long multi-anomaly trace from the
// workload simulator, augmented with the degenerate column shapes the
// streaming state machine must handle: a constant column, an all-NaN
// column, a column with interspersed NaNs, one with an infinity, and a
// categorical column the detector must skip.
func buildStreamTrace(seed int64, rows int) *metrics.Dataset {
	cfg := workload.DefaultConfig()
	cfg.Seed = seed
	injs := []anomaly.Injection{
		{Kind: anomaly.CPUSaturation, Start: rows / 4, Duration: 60},
		{Kind: anomaly.IOSaturation, Start: rows / 2, Duration: 45},
		{Kind: anomaly.CPUSaturation, Start: 5 * rows / 6, Duration: 50},
	}
	logs := workload.NewSimulator(cfg).Run(1000, rows, anomaly.Perturb(injs))
	ds, err := collector.Align(logs)
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(seed + 1))
	n := ds.Rows()
	constant := make([]float64, n)
	allNaN := make([]float64, n)
	sparseNaN := make([]float64, n)
	withInf := make([]float64, n)
	cats := make([]string, n)
	for i := 0; i < n; i++ {
		constant[i] = 42
		allNaN[i] = math.NaN()
		sparseNaN[i] = 5 + rng.NormFloat64()
		if rng.Float64() < 0.1 {
			sparseNaN[i] = math.NaN()
		}
		withInf[i] = rng.Float64()
		cats[i] = fmt.Sprintf("s%d", i%3)
	}
	withInf[n/3] = math.Inf(1)
	for _, c := range []struct {
		name string
		vals []float64
	}{
		{"aux_constant", constant}, {"aux_all_nan", allNaN},
		{"aux_sparse_nan", sparseNaN}, {"aux_inf", withInf},
	} {
		if err := ds.AddNumeric(c.name, c.vals); err != nil {
			panic(err)
		}
	}
	if err := ds.AddCategorical("aux_state", cats); err != nil {
		panic(err)
	}
	return ds
}

// windowSlice materializes rows [lo, hi) of ds as a standalone dataset —
// the snapshot the batch reference detector runs on.
func windowSlice(ds *metrics.Dataset, lo, hi int) *metrics.Dataset {
	out := metrics.MustNewDataset(ds.Timestamps()[lo:hi])
	for i := 0; i < ds.NumAttrs(); i++ {
		col := ds.ColumnAt(i)
		var err error
		if col.Attr.Type == metrics.Numeric {
			err = out.AddNumeric(col.Attr.Name, col.Num[lo:hi])
		} else {
			err = out.AddCategorical(col.Attr.Name, col.Cat[lo:hi])
		}
		if err != nil {
			panic(err)
		}
	}
	return out
}

// requireSameResult asserts the streaming result is byte-identical to
// the batch reference: same region membership, same selected attributes
// (including nil-ness), bitwise-same epsilon.
func requireSameResult(t *testing.T, ctx string, got, want Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Abnormal, want.Abnormal) {
		t.Fatalf("%s: abnormal region diverges: got %v want %v",
			ctx, got.Abnormal.Indices(), want.Abnormal.Indices())
	}
	if !reflect.DeepEqual(got.SelectedAttrs, want.SelectedAttrs) {
		t.Fatalf("%s: selected attrs diverge: got %v want %v", ctx, got.SelectedAttrs, want.SelectedAttrs)
	}
	if math.Float64bits(got.Epsilon) != math.Float64bits(want.Epsilon) {
		t.Fatalf("%s: epsilon diverges: got %v want %v", ctx, got.Epsilon, want.Epsilon)
	}
}

// driveStream feeds ds into a Stream in chunks, running Detect every
// checkEvery appended rows, and checks each tick against the batch
// reference on the same window.
func driveStream(t *testing.T, ds *metrics.Dataset, p Params, windowCap, chunk, checkEvery, workers int) int {
	t.Helper()
	s := NewStream(p, windowCap, workers)
	ticks := 0
	sinceCheck := 0
	for lo := 0; lo < ds.Rows(); lo += chunk {
		hi := lo + chunk
		if hi > ds.Rows() {
			hi = ds.Rows()
		}
		s.Append(windowSlice(ds, lo, hi))
		sinceCheck += hi - lo
		if sinceCheck < checkEvery {
			continue
		}
		sinceCheck = 0
		wLo := hi - windowCap
		if wLo < 0 {
			wLo = 0
		}
		got := s.Detect()
		want := Detect(windowSlice(ds, wLo, hi), p)
		requireSameResult(t, fmt.Sprintf("chunk=%d workers=%d rows=[%d,%d)", chunk, workers, wLo, hi), got, want)
		ticks++
	}
	return ticks
}

func TestStreamMatchesBatchDetect(t *testing.T) {
	ds := buildStreamTrace(7, 900)
	p := DefaultParams()
	const windowCap = 300
	for _, chunk := range []int{1, 7, 30, 120} {
		for _, workers := range []int{1, 2, 8} {
			if chunk == 1 && workers != 1 && testing.Short() {
				continue
			}
			checkEvery := 30
			if chunk > checkEvery {
				checkEvery = chunk
			}
			if ticks := driveStream(t, ds, p, windowCap, chunk, checkEvery, workers); ticks == 0 {
				t.Fatalf("chunk=%d: no detection ticks ran", chunk)
			}
		}
	}
}

func TestStreamFullTurnoverChunk(t *testing.T) {
	// A chunk larger than the window fully replaces it between ticks,
	// forcing the dropped-overflow rebuild path.
	ds := buildStreamTrace(11, 900)
	p := DefaultParams()
	if ticks := driveStream(t, ds, p, 200, 350, 350, 2); ticks == 0 {
		t.Fatal("no detection ticks ran")
	}
}

func TestStreamShortWindows(t *testing.T) {
	// Every-row detection through the rows < tau growth phase, where the
	// sweep's effective tau changes each tick and the state must rebuild.
	ds := buildStreamTrace(13, 60)
	p := DefaultParams()
	if ticks := driveStream(t, ds, p, 600, 1, 1, 1); ticks != 60 {
		t.Fatalf("ticks = %d, want 60", ticks)
	}
}

func TestStreamTinyTau(t *testing.T) {
	ds := buildStreamTrace(17, 400)
	p := DefaultParams()
	p.Tau = 1
	if ticks := driveStream(t, ds, p, 150, 25, 25, 4); ticks == 0 {
		t.Fatal("no detection ticks ran")
	}
}

func TestStreamOddEvenMedianRounding(t *testing.T) {
	// With tau=3, the window ending at row 8 holds {s, s, s}: odd, its
	// median normalizes to s. The windows ending at rows 9 and 10 hold
	// two s and a NaN: even, their median s*0.5 + s*0.5 rounds to 0.
	// Those later even pairs are no lower in both middle values, yet
	// their median is lower, so they must not evict the odd window from
	// the median candidates: at threshold 0 its median alone selects
	// the attribute.
	s := math.SmallestNonzeroFloat64
	nan := math.NaN()
	vals := []float64{0, 0, 1, 0, 0, 0, s, s, s, nan, s, 0, 0, 0, 0, 0}
	ts := make([]int64, len(vals))
	for i := range ts {
		ts[i] = int64(i)
	}
	ds := metrics.MustNewDataset(ts)
	if err := ds.AddNumeric("x", vals); err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.Tau = 3
	p.PotentialThreshold = 0
	if want := Detect(ds, p); len(want.SelectedAttrs) != 1 {
		t.Fatalf("batch selected %v; the case no longer exercises the rounding edge", want.SelectedAttrs)
	}
	if ticks := driveStream(t, ds, p, 600, 2, 2, 1); ticks == 0 {
		t.Fatal("no detection ticks ran")
	}
}

func TestStreamEmpty(t *testing.T) {
	s := NewStream(DefaultParams(), 600, 1)
	res := s.Detect()
	if res.Abnormal.Count() != 0 || res.SelectedAttrs != nil || res.Epsilon != 0 {
		t.Fatalf("empty stream detect: %+v", res)
	}
	s.Append(nil) // no-op
	s.Append(metrics.MustNewDataset(nil))
	if s.Rows() != 0 {
		t.Fatalf("rows = %d after empty appends", s.Rows())
	}
}

func TestStreamResultAliasing(t *testing.T) {
	// Result scratch is documented as valid only until the next Detect;
	// the monitor clones before retaining. Verify two consecutive calls
	// return consistent (re-usable) state rather than accumulating.
	ds := buildStreamTrace(19, 400)
	p := DefaultParams()
	s := NewStream(p, 300, 1)
	s.Append(ds)
	first := s.Detect()
	count := first.Abnormal.Count()
	second := s.Detect()
	if second.Abnormal.Count() != count {
		t.Fatalf("repeat Detect diverged: %d then %d abnormal rows", count, second.Abnormal.Count())
	}
	want := Detect(windowSlice(ds, ds.Rows()-300, ds.Rows()), p)
	requireSameResult(t, "repeat", second, want)
}

// buildHealthyTrace is an anomaly-free simulator trace: the shape a
// fleet instance streams most of the time.
func buildHealthyTrace(seed int64, rows int) *metrics.Dataset {
	cfg := workload.DefaultConfig()
	cfg.Seed = seed
	ds, err := collector.Align(workload.NewSimulator(cfg).Run(1000, rows, nil))
	if err != nil {
		panic(err)
	}
	return ds
}

// chunks splits rows [from, ds.Rows()) of ds into standalone datasets of
// size rows each (the last may be shorter).
func chunks(ds *metrics.Dataset, from, size int) []*metrics.Dataset {
	var out []*metrics.Dataset
	for lo := from; lo < ds.Rows(); lo += size {
		out = append(out, windowSlice(ds, lo, min(lo+size, ds.Rows())))
	}
	return out
}

// filledStream returns a 600-row workers=1 stream prefilled with ds's
// first 600 rows.
func filledStream(ds *metrics.Dataset) *Stream {
	s := NewStream(DefaultParams(), 600, 1)
	s.Append(windowSlice(ds, 0, 600))
	return s
}

// maxTickAllocs is the steady-state allocation budget of one healthy
// 30-row Append+Detect tick into a full 600-row window at workers=1.
// Measured: 2, both the per-attribute fan-out closures of core.ForEach;
// the incremental state allocates nothing once its deques and the
// dbscan pools have reached their working size. (The normalized-cache
// design this replaced averaged 5: its deques were resliced from the
// front, so appends kept reallocating them.)
const maxTickAllocs = 2

func TestStreamTickAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are nondeterministic under -race (sync.Pool drops items)")
	}
	ds := buildHealthyTrace(31, 600+30*64)
	s := filledStream(ds)
	in := chunks(ds, 600, 30)
	i := 0
	tick := func() {
		s.Append(in[i%len(in)])
		i++
		s.Detect()
	}
	// Let every per-attribute buffer and the dbscan pools reach their
	// working size first.
	for j := 0; j < 128; j++ {
		tick()
	}
	if got := testing.AllocsPerRun(50, tick); got > maxTickAllocs {
		t.Fatalf("steady-state tick allocates %.1f times, budget %d", got, maxTickAllocs)
	}
}

func BenchmarkDetectTickStream(b *testing.B) {
	b.Run("chunk=1", func(b *testing.B) {
		// One appended row of state advance plus an incremental Detect
		// over the same mid-anomaly 600-row window
		// BenchmarkDetectTickNaive snapshots.
		ds := buildStreamTrace(29, 900)
		benchTicks(b, ds, chunks(ds, 600, 1))
	})
	b.Run("chunk=30-healthy", func(b *testing.B) {
		// The ingest plane's default tick: 30 appended healthy rows,
		// then Detect over the full 600-row window.
		ds := buildHealthyTrace(29, 600+30*60)
		benchTicks(b, ds, chunks(ds, 600, 30))
	})
}

// benchTicks times Append+Detect of each chunk in turn into a stream
// prefilled with ds's first 600 rows, refilling outside the timed
// region when the chunks run out.
func benchTicks(b *testing.B, ds *metrics.Dataset, in []*metrics.Dataset) {
	s := filledStream(ds)
	idx := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if idx == len(in) {
			b.StopTimer()
			s = filledStream(ds)
			idx = 0
			b.StartTimer()
		}
		s.Append(in[idx])
		idx++
		if res := s.Detect(); res.Abnormal == nil {
			b.Fatal("no result")
		}
	}
}

func BenchmarkDetectTickNaive(b *testing.B) {
	ds := buildStreamTrace(29, 900)
	p := DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The pre-streaming monitor cost per tick: snapshot + full Detect.
		win := windowSlice(ds, ds.Rows()-600, ds.Rows()).Clone()
		res := Detect(win, p)
		if res.Abnormal == nil {
			b.Fatal("no result")
		}
	}
}
