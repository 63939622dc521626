package stats

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// naiveSlidingWindowMedians is the seed implementation — a fresh Median
// (copy + sort) per window — kept as the equivalence reference and the
// benchmark baseline for the incremental version.
func naiveSlidingWindowMedians(xs []float64, tau int) []float64 {
	if len(xs) == 0 {
		return nil
	}
	if tau <= 0 {
		tau = 1
	}
	if tau > len(xs) {
		tau = len(xs)
	}
	out := make([]float64, 0, len(xs)-tau+1)
	for w := 0; w+tau <= len(xs); w++ {
		out = append(out, Median(xs[w:w+tau]))
	}
	return out
}

func TestSlidingWindowMediansMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := [][]float64{
		nil,
		{},
		{1},
		{3, 1, 2},
		{math.NaN(), math.NaN(), math.NaN()},
		{1, math.NaN(), 3, math.NaN(), 5, 6},
	}
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(200)
		xs := make([]float64, n)
		for i := range xs {
			switch rng.Intn(10) {
			case 0:
				xs[i] = math.NaN()
			case 1:
				xs[i] = float64(rng.Intn(5)) // duplicates
			default:
				xs[i] = rng.NormFloat64() * 100
			}
		}
		cases = append(cases, xs)
	}
	for ci, xs := range cases {
		for _, tau := range []int{-1, 0, 1, 2, 3, 7, 20, len(xs), len(xs) + 5} {
			got := SlidingWindowMedians(xs, tau)
			want := naiveSlidingWindowMedians(xs, tau)
			if len(got) != len(want) {
				t.Fatalf("case %d tau %d: got %d medians, want %d", ci, tau, len(got), len(want))
			}
			for i := range got {
				same := got[i] == want[i] || (math.IsNaN(got[i]) && math.IsNaN(want[i]))
				if !same {
					t.Fatalf("case %d tau %d window %d: got %v, want %v", ci, tau, i, got[i], want[i])
				}
			}
		}
	}
}

func TestShiftSortedMatchesRemoveInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	draw := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return math.NaN()
		case 1:
			return math.Inf(2*rng.Intn(2) - 1)
		default:
			return float64(rng.Intn(6)) // duplicates
		}
	}
	for trial := 0; trial < 2000; trial++ {
		var s []float64
		for n := rng.Intn(12); len(s) < n; {
			if x := draw(); !math.IsNaN(x) {
				s = InsertSorted(s, x)
			}
		}
		out, in := math.NaN(), draw()
		if len(s) > 0 && rng.Intn(4) > 0 {
			out = s[rng.Intn(len(s))]
		}
		want := append([]float64(nil), s...)
		if !math.IsNaN(out) {
			want = RemoveSorted(want, out)
		}
		if !math.IsNaN(in) {
			want = InsertSorted(want, in)
		}
		got := ShiftSorted(append([]float64(nil), s...), out, in)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ShiftSorted(%v, %v, %v) = %v, want %v", s, out, in, got, want)
		}
	}
}

// BenchmarkSlidingWindowMedians compares the incremental sorted-window
// sweep against the seed's per-window copy-and-sort on the Section 7
// potential-power shape (tau=20 over a few hundred samples).
func BenchmarkSlidingWindowMedians(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 900)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 100
	}
	b.Run("incremental", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			SlidingWindowMedians(xs, 20)
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			naiveSlidingWindowMedians(xs, 20)
		}
	})
}
