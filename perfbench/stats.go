package main

import (
	"math"
	"sort"
)

// The benchmark's own arithmetic: exact percentiles over recorded
// samples, means, per-key ratios and span self times.  Nothing here reads
// the program's latency histograms, whose power-of-four buckets cannot
// resolve the tails this benchmark reports.

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of the
// samples together with the sample count it was taken from.  It sorts
// samples in place.  An empty set yields (0, 0).
func percentile(samples []float64, p float64) (float64, int) {
	n := len(samples)
	if n == 0 {
		return 0, 0
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(p * float64(n)))
	rank = min(max(rank, 1), n)
	return samples[rank-1], n
}

// mean is the arithmetic mean; 0 for no samples.
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range samples {
		sum += s
	}
	return sum / float64(len(samples))
}

// ratio is num/den, or 0 when there is nothing to divide by (a layer the
// workload does not use).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// span is one recorded stage: the program's own spans (Cluster.Trace) and
// the benchmark's spans share this shape.  Times are nanoseconds from an
// arbitrary common origin.
type span struct {
	id, parent uint64
	name       string
	start, end int64
}

// selfTimes returns, parallel to spans, each span's self time: its
// duration minus the part of its interval that its child spans cover.
// Overlapping children (a parallel fan-out) are counted once, and a child
// reaching outside its parent is clipped to the parent.  A span whose
// parent is not in the set is treated as a root: its own self time is
// computed as usual and it is subtracted from nothing.
func selfTimes(spans []span) []int64 {
	children := make(map[uint64][]int, len(spans))
	for i, s := range spans {
		children[s.parent] = append(children[s.parent], i)
	}
	out := make([]int64, len(spans))
	var iv [][2]int64
	for i, s := range spans {
		iv = iv[:0]
		for _, j := range children[s.id] {
			if j == i || s.id == 0 {
				continue
			}
			lo, hi := max(spans[j].start, s.start), min(spans[j].end, s.end)
			if lo < hi {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		out[i] = (s.end - s.start) - covered(iv)
	}
	return out
}

// covered is the length of the union of the intervals; it sorts iv.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// stage accumulates one span name's durations and self times.
type stage struct {
	n           int
	total, self int64 // nanoseconds
}

// stages folds spans and their self times into per-name totals.
func stages(spans []span, self []int64, into map[string]*stage) {
	for i, s := range spans {
		st := into[s.name]
		if st == nil {
			st = &stage{}
			into[s.name] = st
		}
		st.n++
		st.total += s.end - s.start
		st.self += self[i]
	}
}

// meanMs is the stage's mean duration in milliseconds; 0 if absent.
func (st *stage) meanMs() float64 {
	if st == nil {
		return 0
	}
	return ratio(float64(st.total)/1e6, float64(st.n))
}

// meanSelfMs is the stage's mean self time in milliseconds; 0 if absent.
func (st *stage) meanSelfMs() float64 {
	if st == nil {
		return 0
	}
	return ratio(float64(st.self)/1e6, float64(st.n))
}
