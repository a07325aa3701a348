package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// minBeyond is the sample-support rule: a percentile is reported only
// when at least this many samples lie strictly beyond it.
const minBeyond = 10

// candidatePercentiles are tried from the highest down; the first one
// the samples support is the run's reported tail.
var candidatePercentiles = []float64{99, 95, 90, 75}

// Dist is a set of samples of one timing, in the unit it was taken in.
type Dist []float64

// Median is the middle sample, or the mean of the two middle samples.
// It is NaN for an empty set.
func (d Dist) Median() float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	s := d.sorted()
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Percentile returns the nearest-rank q-th percentile: the smallest
// sample with at least q% of the samples at or below it.
func (d Dist) Percentile(q float64) float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	s := d.sorted()
	return s[rank(len(s), q)-1]
}

// Supports reports whether q is sample-supported: the samples strictly
// beyond the percentile's rank number at least minBeyond.
func (d Dist) Supports(q float64) bool {
	return len(d)-rank(len(d), q) >= minBeyond
}

// Tail returns the highest candidate percentile the samples support.
// ok is false when none is supported.
func (d Dist) Tail() (q, v float64, ok bool) {
	for _, q := range candidatePercentiles {
		if d.Supports(q) {
			return q, d.Percentile(q), true
		}
	}
	return 0, 0, false
}

// Max is the largest sample (NaN when empty).
func (d Dist) Max() float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	s := d.sorted()
	return s[len(s)-1]
}

// Sum adds every sample.
func (d Dist) Sum() float64 {
	t := 0.0
	for _, v := range d {
		t += v
	}
	return t
}

// Mean is Sum divided by the count (NaN when empty).
func (d Dist) Mean() float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	return d.Sum() / float64(len(d))
}

func (d Dist) sorted() []float64 {
	s := append([]float64(nil), d...)
	sort.Float64s(s)
	return s
}

// rank is the 1-based nearest rank of percentile q in n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// describe renders a timing as "n=.. median=.. p90=.." (or
// "p90=unsupported" when the samples cannot support the wanted tail).
func describe(d Dist, want float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d median=%s", len(d), num(d.Median()))
	if want > 0 {
		if d.Supports(want) {
			fmt.Fprintf(&b, " p%g=%s", want, num(d.Percentile(want)))
		} else {
			fmt.Fprintf(&b, " p%g=unsupported", want)
		}
	}
	if q, v, ok := d.Tail(); ok {
		fmt.Fprintf(&b, " tail=p%g:%s", q, num(v))
	} else {
		b.WriteString(" tail=none")
	}
	return b.String()
}

// Ratio is a quotient kept with both of its operands, so every printed
// ratio shows the base it was taken against.
type Ratio struct {
	Num, Den         float64
	NumName, DenName string
	Unit             string // unit shared by Num and Den
}

// Value is Num/Den, or NaN when the base is zero.
func (r Ratio) Value() float64 {
	if r.Den == 0 {
		return math.NaN()
	}
	return r.Num / r.Den
}

// String renders "v = num unit (numName) / den unit (denName)".
func (r Ratio) String() string {
	return fmt.Sprintf("%s = %s %s (%s) / %s %s (%s)",
		num(r.Value()), num(r.Num), r.Unit, r.NumName, num(r.Den), r.Unit, r.DenName)
}

// num formats a measured value with all its significant digits.
func num(v float64) string {
	if math.IsNaN(v) {
		return "NaN"
	}
	return fmt.Sprintf("%.6g", v)
}
