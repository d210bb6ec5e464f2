package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// lat is a set of per-request latencies of one operation kind.
type lat []time.Duration

// percentile returns the nearest-rank q-quantile (0 < q < 1) in ms.
func (l lat) percentile(q float64) float64 {
	if len(l) == 0 {
		return 0
	}
	s := append(lat(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	i = max(0, min(i, len(s)-1))
	return float64(s[i]) / 1e6
}

// sum returns the total latency in seconds.
func (l lat) sum() float64 {
	var t time.Duration
	for _, d := range l {
		t += d
	}
	return t.Seconds()
}

// p99Kept reports whether at least ten samples lie beyond the p99.
func (l lat) p99Kept() bool { return len(l) >= 1000 }

// notePercentiles prints the p50 and, where ten samples lie beyond
// it, the p99 of one operation kind under the given metric prefix.
func (r *report) notePercentiles(prefix string, l lat) {
	if len(l) == 0 {
		return
	}
	r.note(prefix+"_p50_ms", "ms", l.percentile(0.5), len(l))
	if l.p99Kept() {
		r.note(prefix+"_p99_ms", "ms", l.percentile(0.99), len(l))
	} else {
		r.lines = append(r.lines, fmt.Sprintf("  %-34s %14s %-8s n=%d (fewer than 10 samples beyond the p99)", prefix+"_p99_ms", "-", "ms", len(l)))
	}
}

// tail returns the p99 in ms or, when fewer than ten samples lie
// beyond the p99, the highest nearest-rank percentile that has ten
// beyond it (the eleventh-largest sample), with the quantile q it is.
func (l lat) tail() (ms, q float64) {
	if l.p99Kept() {
		return l.percentile(0.99), 0.99
	}
	s := append(lat(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := max(0, len(s)-11)
	return float64(s[i]) / 1e6, float64(i+1) / float64(len(s))
}

// setPercentiles puts op_p50_ms/op_p99_ms on the JSON line and prints
// them with their sample count. A window too short for a p99 with ten
// samples beyond it reports the highest percentile that has them, and
// says so.
func (r *report) setPercentiles(l lat) {
	r.notePercentiles("op", l)
	r.set("op_p50_ms", "ms", l.percentile(0.5))
	tail, q := l.tail()
	if q < 0.99 {
		r.lines = append(r.lines, fmt.Sprintf("  NOTE op_p99_ms on the JSON line is the p%.2f: of %d requests, ten lie beyond it", 100*q, len(l)))
		r.meta["op_p99_quantile"] = q
	}
	r.set("op_p99_ms", "ms", tail)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// div returns a/b, or 0 when b is 0.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
