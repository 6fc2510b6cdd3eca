package main

import (
	"testing"
	"time"
)

// synthetic builds the phase a fleet with the given capacity (in
// robots) would produce: 5 ms acks under capacity, 300 ms over it, and
// a queue that grows once overloaded.
func synthetic(capacity int) func(n int) (*phase, error) {
	return func(n int) (*phase, error) {
		p := &phase{n: n, perRobot: 10, wall: time.Second}
		ack, depth := 5.0, 1.0
		for i := 0; i < n*p.perRobot; i++ {
			if n > capacity {
				ack = 300
				depth += 1
			}
			p.acks = append(p.acks, ack)
			p.depth = append(p.depth, depth)
		}
		return p, nil
	}
}

func TestSearchSustainedFindsCapacity(t *testing.T) {
	for _, capacity := range []int{8, 17, 47, 63, 64, 100, 300, maxRobots, 2 * maxRobots} {
		probes := 0
		f := synthetic(capacity)
		got, _, err := searchSustained(func(n int) (*phase, error) { probes++; return f(n) })
		if err != nil {
			t.Fatal(err)
		}
		// 10 frames per robot in a 1 s phase. The probe budget, with
		// every miss retried, resolves the rate to within 7%.
		want := float64(min(capacity, maxRobots) * 10)
		if got > want || got < 0.93*want {
			t.Errorf("capacity %d robots: sustained %v frames/s, want %v", capacity, got, want)
		}
		if probes > searchProbes {
			t.Errorf("capacity %d: %d probes, budget %d", capacity, probes, searchProbes)
		}
	}
}

func TestSearchSustainedNothingSustained(t *testing.T) {
	got, _, err := searchSustained(synthetic(0))
	if err != nil || got != 0 {
		t.Errorf("got %v, %v; want 0", got, err)
	}
}

// A probe with a failed frame is not sustained even when every
// latency is within the limit.
func TestSearchSustainedFailuresMissTheRate(t *testing.T) {
	got, _, err := searchSustained(func(n int) (*phase, error) {
		p, _ := synthetic(maxRobots)(n)
		if n > 40 {
			p.failed = 1
		}
		return p, nil
	})
	if err != nil || got != 400 {
		t.Errorf("got %v, %v; want 400", got, err)
	}
}
