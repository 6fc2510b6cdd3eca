package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"

	"roboads/internal/attack"
	"roboads/internal/detect"
	"roboads/internal/fleet"
	"roboads/internal/sim"
	"roboads/internal/trace"
)

// stream is one robot's pre-generated mission: the frames a session is
// sent and the reports an untimed standalone detector produces for
// them, which every served report must equal bit for bit.
type stream struct {
	robot  string
	frames []fleet.BatchFrame
	wire   []*trace.Frame
	ref    [][]byte // JSON of fleet.NewWireReport per frame, a prefix until all are computed
}

// streamPlan picks stream i's robot and attack: three Khepera to one
// Tamiya, and half the streams (every Tamiya, a third of the Khepera)
// under a Table II attack, all of them when allAttacked, cycling
// through the scenarios.
func streamPlan(i int, allAttacked bool) (string, attack.Scenario) {
	robot := "khepera"
	if i%4 == 3 {
		robot = "tamiya"
	}
	if !allAttacked && (i%4 == 1 || i%4 == 2) {
		return robot, attack.CleanScenario()
	}
	if robot == "tamiya" {
		ts := attack.TamiyaScenarios()
		return robot, ts[(i/4)%len(ts)]
	}
	ks := attack.KheperaScenarios()
	return robot, ks[(i/2)%len(ks)]
}

// genStream simulates stream i of a seed's plan for at most n frames.
// The mission ends early when the robot reaches its goal.
func genStream(seed int64, i, n int, allAttacked bool) (*stream, error) {
	robot, sc := streamPlan(i, allAttacked)
	simSeed := seed*1000 + int64(i)
	var step func() (*sim.StepRecord, error)
	switch robot {
	case "khepera":
		setup, err := sim.NewKhepera(sim.LabMission(), &sc, simSeed)
		if err != nil {
			return nil, err
		}
		step = setup.Sim.Step
	default:
		setup, err := sim.NewTamiya(sim.LabMission(), &sc, simSeed)
		if err != nil {
			return nil, err
		}
		step = setup.Sim.Step
	}
	s := &stream{robot: robot}
	for len(s.frames) < n {
		rec, err := step()
		if err != nil {
			break // mission over
		}
		s.frames = append(s.frames, fleet.BatchFrame{U: rec.UPlanned, Readings: rec.Readings})
		f := &trace.Frame{K: rec.K, U: []float64(rec.UPlanned), Readings: make(map[string][]float64, len(rec.Readings))}
		for name, z := range rec.Readings {
			f.Readings[name] = []float64(z)
		}
		s.wire = append(s.wire, f)
		if rec.Done {
			break
		}
	}
	if len(s.frames) == 0 {
		return nil, fmt.Errorf("stream %d: empty mission", i)
	}
	return s, nil
}

// genStreams builds streams 0..count-1 in parallel.
func genStreams(seed int64, count, n int, allAttacked bool) ([]*stream, error) {
	out := make([]*stream, count)
	err := parallel(count, func(i int) error {
		s, err := genStream(seed, i, n, allAttacked)
		out[i] = s
		return err
	})
	return out, err
}

// parallel runs f(0..n-1) on GOMAXPROCS goroutines and returns the
// first error.
func parallel(n int, f func(i int) error) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
		next  int
	)
	for w := 0; w < min(n, runtime.GOMAXPROCS(0)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := first != nil
				mu.Unlock()
				if i >= n || stop {
					return
				}
				if err := f(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// reference replays the stream's first n frames (all, when fewer)
// through a standalone detector built by the fleet's own session
// builder, untimed, and keeps each report's wire form.
func (s *stream) reference(n int) error {
	n = min(n, len(s.frames))
	if len(s.ref) >= n {
		return nil
	}
	st, _, err := fleet.DefaultBuilder()(fleet.Spec{Robot: s.robot})
	if err != nil {
		return err
	}
	defer st.Close()
	ref := make([][]byte, n)
	for k, f := range s.frames[:n] {
		rep, err := st.StepContext(context.Background(), f.U, f.Readings)
		if err != nil {
			return fmt.Errorf("reference %s k=%d: %w", s.robot, k, err)
		}
		if ref[k], err = wireJSON(rep); err != nil {
			return err
		}
	}
	s.ref = ref
	return nil
}

// references computes the first n reference reports of every stream,
// in parallel; the streams must be distinct.
func references(streams []*stream, n int) error {
	return parallel(len(streams), func(i int) error { return streams[i].reference(n) })
}

func wireJSON(rep *detect.Report) ([]byte, error) {
	return json.Marshal(fleet.NewWireReport(rep))
}

// matches reports whether a served report for frame k equals the
// reference bit for bit (floats travel through JSON's exact
// shortest-round-trip rendering).
func (s *stream) matches(k int, rep *detect.Report) bool {
	if rep == nil || k >= len(s.ref) {
		return false
	}
	got, err := wireJSON(rep)
	return err == nil && bytes.Equal(got, s.ref[k])
}

// matchesWire is matches for a report that arrived over HTTP.
func (s *stream) matchesWire(k int, w *fleet.WireReport) bool {
	if w == nil || k >= len(s.ref) {
		return false
	}
	got, err := json.Marshal(w)
	return err == nil && bytes.Equal(got, s.ref[k])
}
