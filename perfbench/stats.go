package main

import (
	"math"
	"sort"
)

// tailPercentiles are the candidate tail percentiles, highest first.
// The list stops at p99 so the ack_p99_ms metric never silently turns
// into a deeper tail on a long run; on a short one it falls back to the
// highest percentile the samples support, and the report says which.
var tailPercentiles = []float64{99, 95, 90, 75, 50}

var inf = math.Inf(1)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: a tail figure resting on fewer is mostly noise.
const minBeyond = 10

// summary is a latency distribution as the benchmark reports it: the
// median, the highest percentile that has at least minBeyond samples
// beyond it, and the sample count. Failed operations enter as +Inf, so
// they count as missing any limit.
type summary struct {
	N       int
	P50     float64
	TailPct float64 // the percentile TailVal is at; 0 when N is too small for any
	TailVal float64
	Windows int // windows the figures are medians over; 0 for one pass over all samples
}

// percentile returns the nearest-rank p-th percentile of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[max(0, min(len(sorted)-1, rank-1))]
}

// summarize sorts a copy of xs and picks the reported percentiles.
func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.P50 = percentile(sorted, 50)
	for _, p := range tailPercentiles {
		beyond := len(sorted) - int(math.Ceil(p/100*float64(len(sorted))))
		if beyond >= minBeyond {
			s.TailPct, s.TailVal = p, percentile(sorted, p)
			break
		}
	}
	return s
}

// median of xs (NaN for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// mean of xs (NaN for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// gatedTail is the percentile of the gated ack_p99_ms metric. It is
// fixed: a run that gathers more or fewer samples must not change which
// percentile the gate compares between commits. summarize's automatic
// choice serves the printed notes only.
const gatedTail = 99

// windowSize is the samples one latency window holds: the fewest that
// give a p99 with ten samples beyond it.
const windowSize = 1000

// windowed summarizes xs, which are in send order, window by window of
// size samples and reports the median over windows of each window's
// nearest-rank p50 and p99, so a disk or scheduler stall of the shared
// host moves one window rather than the figure. The last window takes
// the remainder; fewer than two windows' worth is summarized whole, at
// the same fixed percentiles.
func windowed(xs []float64, size int) summary {
	nw := len(xs) / size
	if nw < 2 {
		nw = 1
	}
	out := summary{N: len(xs), TailPct: gatedTail}
	if nw > 1 {
		out.Windows = nw
	}
	var p50s, tails []float64
	for w := 0; w < nw; w++ {
		end := (w + 1) * size
		if w == nw-1 {
			end = len(xs)
		}
		sorted := append([]float64(nil), xs[w*size:end]...)
		sort.Float64s(sorted)
		p50s = append(p50s, percentile(sorted, 50))
		tails = append(tails, percentile(sorted, gatedTail))
	}
	out.P50, out.TailVal = median(p50s), median(tails)
	return out
}
