package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.N() != 0 || s.Mean() != 0 || s.Percentile(50) != 0 || s.Min() != 0 || s.Max() != 0 || s.Stddev() != 0 {
		t.Fatal("empty sample must report zeros")
	}
}

func TestSampleMean(t *testing.T) {
	var s Sample
	for _, x := range []float64{1, 2, 3, 4} {
		s.Add(x)
	}
	if s.Mean() != 2.5 {
		t.Fatalf("mean = %v, want 2.5", s.Mean())
	}
	if s.Sum() != 10 {
		t.Fatalf("sum = %v, want 10", s.Sum())
	}
	if s.Min() != 1 || s.Max() != 4 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
}

func TestSampleAddAfterPercentile(t *testing.T) {
	var s Sample
	s.Add(5)
	s.Add(1)
	if s.Percentile(50) != 1 {
		t.Fatalf("p50 of {1,5} = %v, want 1 (nearest rank)", s.Percentile(50))
	}
	s.Add(0) // must re-sort
	if s.Min() != 0 {
		t.Fatalf("min after re-add = %v", s.Min())
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct{ p, want float64 }{
		{0, 1}, {1, 1}, {50, 50}, {90, 90}, {99, 99}, {100, 100}, {150, 100},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); got != c.want {
			t.Errorf("p%.0f = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestStddev(t *testing.T) {
	var s Sample
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if got := s.Stddev(); math.Abs(got-2) > 1e-12 {
		t.Fatalf("stddev = %v, want 2", got)
	}
}

func TestAddDuration(t *testing.T) {
	var s Sample
	s.AddDuration(1500 * time.Millisecond)
	if s.Mean() != 1.5 {
		t.Fatalf("duration sample mean = %v, want 1.5", s.Mean())
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Figure X", "col", "value")
	tb.AddRow("a", 1.5)
	tb.AddRow("bb", 0.25)
	out := tb.String()
	if !strings.Contains(out, "Figure X") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "a ") || !strings.Contains(out, "bb") {
		t.Fatalf("missing rows:\n%s", out)
	}
	if !strings.Contains(out, "1.5") || !strings.Contains(out, "0.25") {
		t.Fatalf("missing values:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
}

func TestTrimFloat(t *testing.T) {
	cases := map[float64]string{
		1.5:   "1.5",
		2.0:   "2",
		0.25:  "0.25",
		0:     "0",
		0.001: "0.001",
	}
	for in, want := range cases {
		if got := trimFloat(in); got != want {
			t.Errorf("trimFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

// Property: mean is within [min, max] and percentile is monotone in p.
func TestQuickSampleInvariants(t *testing.T) {
	f := func(xs []float64) bool {
		var s Sample
		ok := true
		for _, x := range xs {
			// Metric values in this repo are rates, byte counts, and
			// seconds; bound inputs so the running sum cannot overflow.
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				continue
			}
			s.Add(x)
			ok = ok && !math.IsNaN(s.Mean())
		}
		if s.N() == 0 {
			return true
		}
		if s.Mean() < s.Min()-1e-9 || s.Mean() > s.Max()+1e-9 {
			return false
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := s.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return ok
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(21))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: Percentile(100p/n of rank k) agrees with sorting.
func TestQuickPercentileMatchesSort(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		var s Sample
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
			s.Add(float64(v))
		}
		sort.Float64s(xs)
		for k := 1; k <= len(xs); k++ {
			p := 100 * float64(k) / float64(len(xs))
			if s.Percentile(p) != xs[k-1] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(22))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
