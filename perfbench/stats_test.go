package main

import (
	"math"
	"testing"

	"roboads/internal/api"
	"roboads/internal/detect"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// The helper reports the highest percentile with at least ten samples
// beyond it, and the sample count.
func TestSummarizePicksHighestSupportedPercentile(t *testing.T) {
	for _, tc := range []struct {
		n       int
		wantPct float64
	}{
		{1000, 99}, // exactly 10 beyond p99
		{999, 95},  // 9 beyond p99
		{200, 95},  // 10 beyond p95
		{199, 90},
		{100, 90},
		{40, 75},
		{20, 50},
		{19, 0}, // nothing has 10 beyond it
	} {
		s := summarize(seq(tc.n))
		if s.N != tc.n || s.TailPct != tc.wantPct {
			t.Errorf("n=%d: got p%g with n=%d, want p%g", tc.n, s.TailPct, s.N, tc.wantPct)
		}
		if s.TailPct > 0 {
			beyond := 0
			for _, x := range seq(tc.n) {
				if x > s.TailVal {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("n=%d: p%g=%v has only %d samples beyond it", tc.n, s.TailPct, s.TailVal, beyond)
			}
		}
	}
	if s := summarize(seq(1000)); s.P50 != 500 || s.TailVal != 990 {
		t.Errorf("p50=%v p99=%v, want 500 and 990", s.P50, s.TailVal)
	}
}

// A failed frame enters the latency samples as +Inf, so it misses any
// limit: 11 failures in 1000 frames push p99 to +Inf.
func TestFailedFramesMissTheLimit(t *testing.T) {
	xs := seq(1000)
	for i := 0; i < 11; i++ {
		xs[i] = inf
	}
	if s := summarize(xs); !math.IsInf(s.TailVal, 1) {
		t.Errorf("p99 with 1.1%% failed = %v, want +Inf", s.TailVal)
	}

	// In the open loop, check turns a wrong or errored frame into +Inf
	// and passes() then refuses the rate whatever the latencies.
	p := &phase{n: 1, perRobot: 2, acks: []float64{1, 1}}
	p.reports = [][]*detect.Report{{nil, nil}}
	p.errs = [][]error{{nil, nil}}
	s := &stream{frames: nil}
	p.check([]*stream{s})
	if p.failed != 2 || !math.IsInf(p.acks[0], 1) || p.passes() {
		t.Errorf("unchecked frames: failed=%d acks=%v passes=%v", p.failed, p.acks, p.passes())
	}

	// In the closed loop, a reply carrying an error is failed and its
	// round trip becomes +Inf.
	u := &upload{trace: &stream{}, rtts: []float64{2}}
	u.lines = append(u.lines, api.ReplyLine{Error: "boom"})
	if a, f := u.check(); a != 1 || f != 1 || !math.IsInf(u.rtts[0], 1) {
		t.Errorf("error reply: attempted=%d failed=%d rtts=%v", a, f, u.rtts)
	}
}

// One stalled window moves the pooled p99 but not the median of the
// windows' p99s.
func TestWindowedIgnoresOneStalledWindow(t *testing.T) {
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = 1 + float64(i%100)/100
	}
	for i := 2000; i < 2060; i++ {
		xs[i] = 500
	}
	if s := summarize(xs); s.TailVal != 500 {
		t.Fatalf("pooled p99 = %v, want the stall's 500", s.TailVal)
	}
	s := windowed(xs, windowSize)
	if s.Windows != 5 || s.N != 5000 || s.TailPct != 99 || s.TailVal >= 2 || s.P50 != 1.49 {
		t.Errorf("windowed = %+v, want 5 windows, p99 < 2, p50 1.49", s)
	}
}

// The gated tail stays p99 whatever the sample count: a short run or a
// small window does not fall back to a lower percentile.
func TestWindowedKeepsP99(t *testing.T) {
	for _, tc := range []struct{ n, size, windows int }{
		{500, windowSize, 0}, // one window: p99 with only 5 beyond
		{2600, windowSize, 2},
		{26 * 20, 26, 20}, // suite rounds: each round's p99 is its slowest mission
	} {
		s := windowed(seq(tc.n), tc.size)
		if s.TailPct != 99 || s.N != tc.n || s.Windows != tc.windows {
			t.Errorf("n=%d size=%d: got p%g n=%d windows=%d, want p99 n=%d windows=%d",
				tc.n, tc.size, s.TailPct, s.N, s.Windows, tc.n, tc.windows)
		}
	}
	if s := windowed(seq(500), windowSize); s.TailVal != 495 || s.P50 != 250 {
		t.Errorf("one window of 500: p50=%v p99=%v, want 250 and 495", s.P50, s.TailVal)
	}
	// Round r of 26 holds 26r+1 .. 26r+26; the median round is round 9
	// or 10 of 20, so the p99 (the round's maximum) is their mean.
	if s := windowed(seq(26*20), 26); s.TailVal != (260+286)/2.0 {
		t.Errorf("rounds: p99=%v, want %v", s.TailVal, (260+286)/2.0)
	}
}
