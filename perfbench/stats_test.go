package main

import (
	"math"
	"strings"
	"testing"
)

func seq(n int) Dist {
	d := make(Dist, n)
	for i := range d {
		d[i] = float64(n - i) // descending, so sorting is exercised
	}
	return d
}

func TestMedian(t *testing.T) {
	if got := (Dist{3, 1, 2}).Median(); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := (Dist{4, 1, 3, 2}).Median(); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if !math.IsNaN(Dist{}.Median()) {
		t.Error("empty median should be NaN")
	}
}

// A percentile is supported only with at least ten samples strictly
// beyond its nearest rank.
func TestPercentileSupport(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want bool
	}{
		{100, 90, true},  // rank 90, 10 beyond
		{99, 90, false},  // rank 90, 9 beyond
		{1000, 99, true}, // rank 990, 10 beyond
		{999, 99, false}, // rank 990, 9 beyond
		{20, 50, true},   // rank 10, 10 beyond
		{19, 50, false},  // rank 10, 9 beyond
		{40, 75, true},   // rank 30, 10 beyond
		{10, 90, false},  // rank 9, 1 beyond
	}
	for _, c := range cases {
		if got := seq(c.n).Supports(c.q); got != c.want {
			t.Errorf("n=%d p%g supported = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestTailPicksHighestSupported(t *testing.T) {
	cases := []struct {
		n     int
		wantQ float64
		ok    bool
	}{
		{1000, 99, true},
		{200, 95, true},
		{100, 90, true},
		{99, 75, true},
		{39, 0, false},
	}
	for _, c := range cases {
		q, v, ok := seq(c.n).Tail()
		if ok != c.ok || q != c.wantQ {
			t.Errorf("n=%d: tail p%g ok=%v, want p%g ok=%v", c.n, q, ok, c.wantQ, c.ok)
			continue
		}
		if ok && v != math.Ceil(q/100*float64(c.n)) {
			t.Errorf("n=%d: p%g = %v, want the nearest-rank sample %v", c.n, q, v, math.Ceil(q/100*float64(c.n)))
		}
	}
}

func TestDescribeSaysWhenUnsupported(t *testing.T) {
	s := describe(seq(50), 90)
	if !strings.Contains(s, "n=50") || !strings.Contains(s, "p90=unsupported") || !strings.Contains(s, "tail=p75:") {
		t.Errorf("describe = %q", s)
	}
}

// Every ratio prints both operands with their names and unit.
func TestRatioPrintsItsBase(t *testing.T) {
	r := Ratio{Num: 500, Den: 25, NumName: "cold load", DenName: "cache-hit load", Unit: "ms"}
	if r.Value() != 20 {
		t.Fatalf("value = %v", r.Value())
	}
	want := "20 = 500 ms (cold load) / 25 ms (cache-hit load)"
	if got := r.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if !math.IsNaN((Ratio{Num: 1}).Value()) {
		t.Error("a ratio over a zero base should be NaN, not a number")
	}
}

func TestResultRatioLineCarriesBase(t *testing.T) {
	var b strings.Builder
	r := newResult(&b)
	r.Ratio("dsweep.vs_local_x", Ratio{Num: 90, Den: 100, NumName: "dsweep scenarios/s", DenName: "Session.Sweep scenarios/s", Unit: "1/s"})
	r.Count("dataset.pool_hits", 7, "9 pool lookups")
	out := b.String()
	for _, want := range []string{
		"ratio dsweep.vs_local_x 0.9 = 90 1/s (dsweep scenarios/s) / 100 1/s (Session.Sweep scenarios/s)",
		"count dataset.pool_hits=7 of 9 pool lookups",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
}

// Calm keeps the samples that saw no steal, or at least the quarter
// that saw the least.
func TestCalmDropsStolenSamples(t *testing.T) {
	cases := []struct {
		samples []Sample
		want    Dist
	}{
		{[]Sample{{10, 0}, {11, 0}, {30, 5}, {12, 1}, {40, 9}}, Dist{10, 11}},
		{[]Sample{{10, 2}, {11, 3}, {30, 5}, {12, 1}, {40, 9}, {13, 1}, {14, 4}, {15, 8}}, Dist{12, 13}},
		{[]Sample{{1, 0}, {2, 0}, {3, 0}}, Dist{1, 2, 3}},
		{nil, nil},
	}
	for _, c := range cases {
		got := Calm(c.samples)
		if len(got) != len(c.want) {
			t.Errorf("Calm(%v) = %v, want %v", c.samples, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Calm(%v) = %v, want %v", c.samples, got, c.want)
				break
			}
		}
	}
}
