package detect

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dbsherlock/internal/metrics"
)

// fuzzValue maps one input byte to a column value. Half the palette is
// the values the Stream's raw-order-statistics argument must survive —
// NaN, ±Inf, ±0, ±MaxFloat64 (whose span overflows), the smallest
// subnormal — and the rest is a coarse grid with many duplicates.
func fuzzValue(b byte) float64 {
	switch b % 16 {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return 0
	case 4:
		return math.Copysign(0, -1)
	case 5:
		return math.MaxFloat64
	case 6:
		return -math.MaxFloat64
	case 7:
		return math.SmallestNonzeroFloat64
	default:
		return float64(b>>4) + float64(b%16)/4
	}
}

// FuzzStreamMatchesBatch drives a Stream with random chunk sizes (1 to
// beyond the window), window caps, tau, thresholds and worker counts,
// and requires
// every tick's Result to equal batch Detect on the materialized window.
// Four columns tile the input bytes through fuzzValue; a level-shift
// column and a constant column ride along so attributes get selected
// and DBSCAN runs. The row count is its own argument, so short inputs
// (cheap for the fuzzer to minimize) still fill several windows. Wired
// into make fuzz-smoke.
func FuzzStreamMatchesBatch(f *testing.F) {
	ramp := make([]byte, 64)
	for i := range ramp {
		ramp[i] = byte(8+i%8) | byte(i/6%16)<<4
	}
	special := append([]byte(nil), ramp...)
	for i := 0; i < len(special); i += 5 {
		special[i] = byte(i % 8) // NaN, ±Inf, ±0, ±MaxFloat64, subnormal
	}
	f.Add(int64(1), uint8(200), uint8(40), uint8(20), uint8(0), ramp)
	f.Add(int64(2), uint8(120), uint8(25), uint8(3), uint8(1), special)
	f.Add(int64(3), uint8(90), uint8(7), uint8(30), uint8(2), special)
	f.Add(int64(4), uint8(255), uint8(63), uint8(0), uint8(3), ramp[:13])
	f.Fuzz(func(t *testing.T, seed int64, rowsB, capB, tauB, workersB uint8, raw []byte) {
		const fuzzCols = 4
		if len(raw) == 0 {
			return
		}
		n := 1 + int(rowsB)
		windowCap := 1 + int(capB%64)
		p := DefaultParams()
		p.Tau = int(tauB % 40) // 0 exercises the tau floor, > windowCap the clamp
		workers := 1 + int(workersB%4)
		rng := rand.New(rand.NewSource(seed))
		p.PotentialThreshold = float64(rng.Intn(4)) / 10 // 0 selects any potential at all

		ts := make([]int64, n)
		for i := range ts {
			ts[i] = int64(i)
		}
		ds := metrics.MustNewDataset(ts)
		add := func(name string, vals []float64) {
			if err := ds.AddNumeric(name, vals); err != nil {
				t.Fatal(err)
			}
		}
		for c := 0; c < fuzzCols; c++ {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = fuzzValue(raw[(i*fuzzCols+c)%len(raw)])
			}
			add(fmt.Sprintf("raw%d", c), vals)
		}
		shift := make([]float64, n)
		constant := make([]float64, n)
		period := 1 + rng.Intn(2*windowCap)
		for i := range shift {
			shift[i] = 0.05 * rng.NormFloat64()
			if i/period%2 == 1 {
				shift[i]++
			}
			constant[i] = 7
		}
		add("shift", shift)
		add("constant", constant)

		s := NewStream(p, windowCap, workers)
		for lo := 0; lo < n; {
			hi := min(n, lo+1+rng.Intn(windowCap+windowCap/2+2))
			s.Append(windowSlice(ds, lo, hi))
			got := s.Detect()
			want := Detect(windowSlice(ds, max(0, hi-windowCap), hi), p)
			requireSameResult(t, fmt.Sprintf("cap=%d tau=%d workers=%d rows=[%d,%d)",
				windowCap, p.Tau, workers, lo, hi), got, want)
			lo = hi
		}
	})
}
