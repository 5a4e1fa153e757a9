package main

import (
	"fmt"
	"math"
	"sort"
)

// summary condenses the samples of one metric taken within a run.
type summary struct {
	N              int
	Median, Q1, Q3 float64
	RelativeSpread float64 // (Q3 - Q1) / Median; 0 below two samples
}

// summarize returns the median and quartiles of xs. The quartiles follow the
// default ("exclusive") method of Python's statistics.quantiles(xs, n=4), so
// spreads read the same here and in Python. xs must not be empty; it is not
// modified.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: len(s), Median: median(s)}
	out.Q1, out.Q3 = out.Median, out.Median
	if len(s) >= 2 {
		out.Q1, out.Q3 = quantileExclusive(s, 1, 4), quantileExclusive(s, 3, 4)
		if out.Median != 0 {
			out.RelativeSpread = (out.Q3 - out.Q1) / math.Abs(out.Median)
		}
	}
	return out
}

func (s summary) String() string {
	return fmt.Sprintf("median %.6g  q1 %.6g  q3 %.6g  spread %.1f%%  (n=%d)",
		s.Median, s.Q1, s.Q3, 100*s.RelativeSpread, s.N)
}

// median of sorted samples.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quantileExclusive is cut point i of n equal-probability intervals of the
// sorted samples (len >= 2), by linear interpolation over positions
// i*(len+1)/n — Python's statistics.quantiles method "exclusive".
func quantileExclusive(sorted []float64, i, n int) float64 {
	m := len(sorted) + 1
	j := i * m / n
	if j < 1 {
		j = 1
	}
	if j > len(sorted)-1 {
		j = len(sorted) - 1
	}
	delta := float64(i*m - j*n)
	return (sorted[j-1]*(float64(n)-delta) + sorted[j]*delta) / float64(n)
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
