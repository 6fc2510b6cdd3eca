package main

import (
	"testing"

	"roboads/internal/scenario"
)

// threeTargets is a one-trial result whose three detected delays give
// a different mean when summed in another order.
func threeTargets(order ...string) scenario.Result {
	delays := map[string]float64{"a": 0.1, "b": 0.2, "c": 0.3}
	r := scenario.Result{Name: "x", Trials: 1, Iterations: 100, Targets: map[string]scenario.TargetStats{}}
	var sum float64
	for _, name := range order {
		r.Targets[name] = scenario.TargetStats{DelaySec: delays[name]}
		sum += delays[name]
	}
	r.MeanDelaySec = sum / float64(len(order))
	return r
}

// A mean summed in another target order matches, and is reported as
// such; any other difference does not.
func TestSameResultAllowsOnlySummationOrder(t *testing.T) {
	want := threeTargets("a", "b", "c")
	got := threeTargets("c", "b", "a")
	if got.MeanDelaySec == want.MeanDelaySec {
		t.Fatalf("test delays sum the same in both orders (%v)", got.MeanDelaySec)
	}
	if ok, orderOnly := sameResult(got, want); !ok || !orderOnly {
		t.Errorf("reordered sum: ok=%v orderOnly=%v, want true true", ok, orderOnly)
	}
	if ok, orderOnly := sameResult(want, want); !ok || orderOnly {
		t.Errorf("identical: ok=%v orderOnly=%v, want true false", ok, orderOnly)
	}

	off := want
	off.MeanDelaySec += 1e-9
	if ok, _ := sameResult(off, want); ok {
		t.Error("a mean that is no ordering of the delays matched")
	}
	missed := threeTargets("c", "b", "a")
	missed.Targets["c"] = scenario.TargetStats{DelaySec: -1, Missed: 1}
	if ok, _ := sameResult(missed, want); ok {
		t.Error("a missed target matched")
	}
	other := threeTargets("c", "b", "a")
	other.Iterations++
	if ok, _ := sameResult(other, want); ok {
		t.Error("a different iteration count matched")
	}
}
