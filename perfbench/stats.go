package main

import (
	"math"
	"sort"
	"time"
)

// minTail is the fewest samples that must lie beyond a tail percentile
// for it to be reported; with fewer, the maximum is reported instead,
// so a "p90" never rests on a handful of samples.
const minTail = 10

// pctl is a percentile reported together with the sample count it
// rests on.
type pctl struct {
	Value  float64 // the percentile, or the maximum when IsMax
	N      int     // samples summarised
	Beyond int     // samples ranked above Value
	IsMax  bool    // fewer than minTail samples lay beyond the percentile
}

// percentile returns the nearest-rank q-quantile of xs (0 < q ≤ 1).
func percentile(xs []float64, q float64) pctl {
	n := len(xs)
	if n == 0 {
		return pctl{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(n)))
	rank = max(1, min(rank, n))
	return pctl{Value: s[rank-1], N: n, Beyond: n - rank}
}

// tailPercentile is percentile with the small-sample fallback: when
// fewer than minTail samples lie beyond the q-quantile, it reports the
// maximum and says so.
func tailPercentile(xs []float64, q float64) pctl {
	p := percentile(xs, q)
	if p.N > 0 && p.Beyond < minTail {
		s := percentile(xs, 1)
		return pctl{Value: s.Value, N: p.N, IsMax: true}
	}
	return p
}

// median is the nearest-rank median.
func median(xs []float64) float64 { return percentile(xs, 0.5).Value }

// mean returns the arithmetic mean (0 for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// ops counts the operations a workload attempted — joins, rounds and
// handovers — and how many of them failed.
type ops struct {
	Attempted int64
	Failed    int64
}

// add records n attempted operations of which failed failed.
func (o *ops) add(n, failed int64) {
	o.Attempted += n
	o.Failed += failed
}

// merge folds another tally into o.
func (o *ops) merge(p ops) { o.add(p.Attempted, p.Failed) }

// errorRate is failed / attempted (0 when nothing was attempted).
func (o ops) errorRate() float64 {
	if o.Attempted == 0 {
		return 0
	}
	return float64(o.Failed) / float64(o.Attempted)
}
