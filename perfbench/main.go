// Command perfbench is the repository benchmark. It builds nothing
// itself: run.sh builds it and the roboads binary from source, then
// runs
//
//	perfbench -workload suite|fleet-10hz|replay-ha -seed N -seconds S -trace 0|1
//
// Every input is generated from -seed. An untraced run (-trace 0)
// measures the workload with all program tracing off and prints the
// end-to-end metrics; a traced run (-trace 1) prints the per-layer
// metrics of all three workloads plus the tracing overhead of the named
// one. Either way every served result is checked against an untimed
// reference, and the last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. A mismatch exits 1.
// README.md documents the workloads and what each metric should move.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// workloads are the benchmark's workloads, in run order for a traced
// run. BENCHMARK.json gates suite and replay-ha only: on a shared host
// fleet-10hz's latency and capacity follow the host's scheduling bursts
// further than any bound the gate allows (README.md), so it runs by
// name and in every traced run but is not compared between commits.
var workloads = []string{"suite", "fleet-10hz", "replay-ha"}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median. The suite's set-up takes about a millisecond, so it repeats
// more often.
const (
	setupReps      = 5
	suiteSetupReps = 21
)

// opts configure one workload pass.
type opts struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// nominalOnly skips fleet-10hz's sustained_hz search (a traced run
	// needs only the nominal phase).
	nominalOnly bool
	work        string // scratch directory inside the checkout
	bin         string // roboads binary under test
}

func main() {
	workload := flag.String("workload", "", "workload: suite, fleet-10hz or replay-ha")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 45, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from traced passes")
	work := flag.String("work", ".bench_build/work", "scratch directory for state and spawned nodes")
	bin := flag.String("bin", ".bench_build/roboads", "roboads binary under test (replay-ha)")
	flag.Parse()

	o := opts{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, work: *work, bin: *bin}
	res, err := run(*workload, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	specs := endToEnd
	if o.trace {
		specs = perLayer
	}
	if err := checkNames(res, specs); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	correct := res.Failed == 0
	if err := writeResult(os.Stdout, res, specs, correct); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d frames failed their output check\n", res.Failed, res.Attempted)
		os.Exit(1)
	}
}

func run(workload string, o opts) (*result, error) {
	if o.seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	known := false
	for _, w := range workloads {
		known = known || w == workload
	}
	if !known {
		return nil, fmt.Errorf("unknown -workload %q (want suite, fleet-10hz or replay-ha)", workload)
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.work, workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	o.work = dir
	note, fsyncMs := envNote(dir)
	steal0, total0 := hostCPU()

	var res *result
	if o.trace {
		res, err = traced(workload, o)
	} else {
		res, err = pass(workload, o)
	}
	if err != nil {
		return nil, err
	}
	steal1, total1 := hostCPU()
	note += fmt.Sprintf(" host_steal=%.1f%%", 100*float64(steal1-steal0)/float64(max(1, total1-total0)))
	res.Notes = append([]string{note}, res.Notes...)
	if o.trace {
		res.set("env.fsync_ms", fsyncMs)
	}
	return res, nil
}

// pass runs one workload once.
func pass(workload string, o opts) (*result, error) {
	switch workload {
	case "suite":
		return suiteWorkload(o)
	case "fleet-10hz":
		return fleetWorkload(o)
	default:
		return replayWorkload(o)
	}
}

// traced measures the per-layer metrics: a traced pass of every
// workload, each a quarter of the run, and for fleet-10hz and
// replay-ha an untraced baseline pass of the named workload, also a
// quarter. Per-layer names carry the workload that measures them, so
// every traced run reports the whole set. The named workload's tracing
// overhead is its server CPU per frame traced against untraced; the
// suite's traced pass measures its own, on one mission loop run both
// ways.
func traced(workload string, o opts) (*result, error) {
	share := o.seconds / 4
	res := newResult()
	var b *result
	if workload != "suite" {
		base := o
		base.seconds, base.trace, base.nominalOnly = share, false, true
		var err error
		if b, err = pass(workload, base); err != nil {
			return nil, fmt.Errorf("untraced %s: %w", workload, err)
		}
		res.Attempted, res.Failed = b.Attempted, b.Failed
		res.notef("untraced %s baseline: cpu %.2f us/frame, ack p50 %.3f ms", workload,
			b.Metrics["cpu_us_per_frame"].Value, b.Metrics["ack_p50_ms"].Value)
	}
	for _, w := range workloads {
		t := o
		t.seconds, t.trace, t.nominalOnly = share, true, true
		t.work = filepath.Join(o.work, "traced-"+w)
		if err := os.MkdirAll(t.work, 0o755); err != nil {
			return nil, err
		}
		r, err := pass(w, t)
		if err != nil {
			return nil, fmt.Errorf("traced %s: %w", w, err)
		}
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		res.Notes = append(res.Notes, r.Notes...)
		res.notef("traced %s: cpu %.2f us/frame, ack p50 %.3f ms", w,
			r.Metrics["cpu_us_per_frame"].Value, r.Metrics["ack_p50_ms"].Value)
		for name, m := range r.Metrics {
			if workloadOf(name) == w {
				res.Metrics[name] = m
			}
		}
		if w != workload {
			continue
		}
		if b == nil {
			res.Metrics["trace.overhead_pct"] = r.Metrics["trace.overhead_pct"]
		} else {
			bc, tc := b.Metrics["cpu_us_per_frame"].Value, r.Metrics["cpu_us_per_frame"].Value
			res.set("trace.overhead_pct", (tc-bc)/bc*100)
		}
	}
	return res, nil
}
