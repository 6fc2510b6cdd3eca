package main

import (
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"testing"
)

// The metric tables the benchmark prints from must be the ones
// BENCHMARK.json declares, name for name, with the same unit and
// direction.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	for _, w := range bench.Workloads {
		if !slices.Contains(workloads, w.Name) {
			t.Errorf("BENCHMARK.json workload %q is not one the benchmark runs %v", w.Name, workloads)
		}
	}
	if !reflect.DeepEqual(bench.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json:\n%v\nbenchmark prints:\n%v", bench.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bench.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json:\n%v\nbenchmark prints:\n%v", bench.PerLayer, perLayer)
	}
	for _, m := range perLayer {
		if workloadOf(m.Name) == "" && m.Name != "env.fsync_ms" && m.Name != "trace.overhead_pct" {
			t.Errorf("per-layer metric %s names no workload", m.Name)
		}
	}
}

// A run prints exactly its table: a missing or an extra metric is an
// error, not a silently different result line.
func TestCheckNames(t *testing.T) {
	r := newResult()
	for _, s := range endToEnd {
		r.set(s.Name, 1)
	}
	if err := checkNames(r, endToEnd); err != nil {
		t.Fatal(err)
	}
	r.set("bogus", 1)
	if checkNames(r, endToEnd) == nil {
		t.Error("extra metric accepted")
	}
	delete(r.Metrics, "bogus")
	delete(r.Metrics, "setup_s")
	if checkNames(r, endToEnd) == nil {
		t.Error("missing metric accepted")
	}
}
