package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// metricSpec names one reported metric. The end-to-end and per-layer
// tables below are the benchmark's contract: BENCHMARK.json lists the
// same names (pinned by TestMetricNamesMatchBenchmarkJSON), and a run
// refuses to print a result whose metric set differs from its table.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are printed by every untraced run (-trace 0).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"frames_per_s", "1/s", "higher"},
	{"ack_p50_ms", "ms", "lower"},
	{"ack_p99_ms", "ms", "lower"},
	{"cpu_us_per_frame", "us", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are printed by every traced run (-trace 1). Each name starts
// with the workload whose traced pass measures it; README.md maps each
// to the end-to-end metric it should move.
var perLayer = []metricSpec{
	{"suite.core.step_us", "us", "lower"},
	{"suite.core.mode_step_us", "us", "lower"},
	{"suite.core.jacobi_fallback_ratio", "ratio", "lower"},
	{"suite.detect.decide_us", "us", "lower"},
	{"suite.sim.setup_ms", "ms", "lower"},
	{"suite.sim.frame_us", "us", "lower"},
	{"suite.scenario.mission_ms", "ms", "lower"},
	{"suite.proc.allocs_per_frame", "count", "lower"},
	{"suite.proc.gc_cycles", "count", "lower"},

	{"fleet-10hz.fleet.queue_wait_ms", "ms", "lower"},
	{"fleet-10hz.fleet.admit_us", "us", "lower"},
	{"fleet-10hz.fleet.queue_depth_max", "count", "lower"},
	{"fleet-10hz.fleet.reject_ratio", "ratio", "lower"},
	{"fleet-10hz.store.fsync_ms", "ms", "lower"},
	{"fleet-10hz.store.wal_append_us", "us", "lower"},
	{"fleet-10hz.store.commit_batch_frames", "count", "higher"},
	{"fleet-10hz.store.fsyncs_per_kframe", "count", "lower"},
	{"fleet-10hz.gen.late_ms", "ms", "lower"},
	{"fleet-10hz.client.cpu_us_per_frame", "us", "lower"},

	{"replay-ha.http.decode_us", "us", "lower"},
	{"replay-ha.http.reply_ms", "ms", "lower"},
	{"replay-ha.http.frames_per_batch", "count", "higher"},
	{"replay-ha.router.overhead_ms", "ms", "lower"},
	{"replay-ha.router.location_hit_ratio", "ratio", "higher"},
	{"replay-ha.repl.ack_wait_ms", "ms", "lower"},
	{"replay-ha.repl.degraded", "count", "lower"},
	{"replay-ha.store.commit_batch_frames", "count", "higher"},
	{"replay-ha.client.rtt_ms", "ms", "lower"},
	{"replay-ha.client.cpu_us_per_frame", "us", "lower"},

	{"env.fsync_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// measured is one metric value with the number of samples behind it
// (0 for a count or a ratio of totals) and, for a latency, the
// percentile the value sits at and the windows it is a median over.
type measured struct {
	Value   float64
	N       int
	Pct     float64
	Windows int
}

// result is what one run reports.
type result struct {
	Attempted int64 // frames (or suite iterations) attempted
	Failed    int64 // refused, errored, wrong or lost
	Metrics   map[string]measured
	Notes     []string // human-readable lines printed before the JSON
}

func newResult() *result { return &result{Metrics: make(map[string]measured)} }

func (r *result) set(name string, v float64) { r.Metrics[name] = measured{Value: v} }

func (r *result) setN(name string, v float64, n int) { r.Metrics[name] = measured{Value: v, N: n} }

// setTail records a latency tail: the summary's highest supported
// percentile and its sample count.
func (r *result) setTail(name string, s summary) {
	r.Metrics[name] = measured{Value: s.TailVal, N: s.N, Pct: s.TailPct, Windows: s.Windows}
}

// setLatency records a latency summary as its p50 and tail metrics.
func (r *result) setLatency(p50, tail string, s summary) {
	r.Metrics[p50] = measured{Value: s.P50, N: s.N, Pct: 50, Windows: s.Windows}
	r.Metrics[tail] = measured{Value: s.TailVal, N: s.N, Pct: s.TailPct, Windows: s.Windows}
}

func (r *result) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// checkNames reports any difference between the metric set of r and
// the table the run mode promises.
func checkNames(r *result, specs []metricSpec) error {
	want := make(map[string]bool, len(specs))
	for _, s := range specs {
		want[s.Name] = true
		if _, ok := r.Metrics[s.Name]; !ok {
			return fmt.Errorf("metric %s not measured", s.Name)
		}
	}
	for name := range r.Metrics {
		if !want[name] {
			return fmt.Errorf("metric %s is not in the table", name)
		}
	}
	return nil
}

// jsonMetric is one entry of the final result line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeResult prints every metric by name with its unit and sample
// count, then the one-line JSON result the benchmark contract asks for
// as the last line of standard output.
func writeResult(w io.Writer, r *result, specs []metricSpec, correct bool) error {
	for _, n := range r.Notes {
		fmt.Fprintln(w, "#", n)
	}
	failedFrac := 0.0
	if r.Attempted > 0 {
		failedFrac = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "%-40s %14.6g %-6s (n=%d)\n", "failed_frac", failedFrac, "ratio", r.Attempted)
	out := make(map[string]jsonMetric, len(specs))
	for _, s := range specs {
		m := r.Metrics[s.Name]
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// JSON has no NaN/Inf; an unmeasurable figure (all frames
			// failed) reads as the largest float, which fails any bound.
			v = math.MaxFloat64
		}
		extra := ""
		if m.N > 0 {
			extra = fmt.Sprintf("(n=%d)", m.N)
		}
		if m.Pct > 0 {
			extra = fmt.Sprintf("(p%g, n=%d)", m.Pct, m.N)
		}
		if m.Windows > 0 {
			extra = fmt.Sprintf("(median of %d windows, n=%d)", m.Windows, m.N)
			if m.Pct > 0 {
				extra = fmt.Sprintf("(median of %d windows' p%g, n=%d)", m.Windows, m.Pct, m.N)
			}
		}
		fmt.Fprintf(w, "%-40s %14.6g %-6s %s\n", s.Name, v, s.Unit, extra)
		out[s.Name] = jsonMetric{Value: v, Unit: s.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{correct, max(1, r.Attempted), r.Failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// workloadOf is the workload prefix of a per-layer metric name.
func workloadOf(name string) string {
	for _, w := range workloads {
		if strings.HasPrefix(name, w+".") {
			return w
		}
	}
	return ""
}
