package core_test

import (
	"math"
	"testing"

	"roboads/internal/attack"
	"roboads/internal/core"
	"roboads/internal/mat"
	"roboads/internal/robot"
	"roboads/internal/sim"
)

// poolFrame is one recorded control iteration: the engine's complete
// input.
type poolFrame struct {
	u        mat.Vec
	readings map[string]mat.Vec
}

// recordFrames steps a simulator up to n iterations and keeps the
// monitor's inputs. The simulators are open loop, so the frames replay
// identically into any number of engines.
func recordFrames(t *testing.T, step func() (*sim.StepRecord, error), n int) []poolFrame {
	t.Helper()
	var frames []poolFrame
	for len(frames) < n {
		rec, err := step()
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, poolFrame{u: rec.UPlanned, readings: rec.Readings})
		if rec.Done {
			break
		}
	}
	return frames
}

// profileEngine builds a sequential engine the way robot.Profile does.
func profileEngine(t *testing.T, p robot.Profile) *core.Engine {
	t.Helper()
	n := len(p.X0)
	q := make([]float64, n)
	p0 := make([]float64, n)
	for i, s := range p.ProcessStd {
		q[i] = s * s
		p0[i] = 1e-6
	}
	plant := core.Plant{Model: p.Model, Q: mat.Diag(q...), AngleStates: p.AngleStates, UMax: p.UMax}
	var modes []*core.Mode
	var err error
	if p.LeaveOneOut {
		modes, err = core.LeaveOneOutModes(p.Model, p.Suite, p.ObsX0, p.ObsU0)
	} else {
		modes, err = core.SingleReferenceModes(p.Model, p.Suite, p.ObsX0, p.ObsU0, false)
	}
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultEngineConfig()
	cfg.Workers = -1
	eng, err := core.NewEngine(plant, modes, p.X0, mat.Diag(p0...), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng
}

// fingerprint flattens everything an engine output computes — the
// selection, the weights, and every mode's estimates — into float bits,
// so two outputs compare bit for bit.
func fingerprint(out *core.Output) []uint64 {
	fp := []uint64{uint64(out.Iteration), uint64(out.Selected)}
	vec := func(v mat.Vec) {
		fp = append(fp, uint64(len(v)))
		for _, x := range v {
			fp = append(fp, math.Float64bits(x))
		}
	}
	m := func(a *mat.Mat) {
		if a == nil {
			fp = append(fp, math.MaxUint64)
			return
		}
		fp = append(fp, uint64(a.Rows()), uint64(a.Cols()))
		for i := 0; i < a.Rows(); i++ {
			vec(a.Row(i))
		}
	}
	vec(out.Weights)
	for _, r := range out.PerMode {
		if r == nil {
			fp = append(fp, math.MaxUint64)
			continue
		}
		vec(r.X)
		m(r.Px)
		vec(r.Da)
		m(r.Pa)
		vec(r.Ds)
		m(r.Ps)
		vec(r.Innovation)
		fp = append(fp, math.Float64bits(r.Likelihood), math.Float64bits(r.PValue))
	}
	return fp
}

func equalBits(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// poolRigs records an attacked Khepera mission and a Tamiya mission and
// returns their profiles and frames.
func poolRigs(t *testing.T, n int) (kp, tp robot.Profile, kf, tf []poolFrame) {
	t.Helper()
	ksc := attack.KheperaScenarios()[3]
	ks, err := sim.NewKhepera(sim.LabMission(), &ksc, 11)
	if err != nil {
		t.Fatal(err)
	}
	tsc := attack.CleanScenario()
	ts, err := sim.NewTamiya(sim.LabMission(), &tsc, 12)
	if err != nil {
		t.Fatal(err)
	}
	return robot.Khepera(ks), robot.Tamiya(ts), recordFrames(t, ks.Sim.Step, n), recordFrames(t, ts.Sim.Step, n)
}

// TestPooledArenasInterleavedMatchAlone pins that the NUISE arenas
// borrowed from the shared pools carry nothing from one step to the
// next: two Khepera engines on different missions (which share pools,
// mode by mode) and a Tamiya engine (other state, control and
// measurement shapes), stepped in alternation, give outputs
// bit-identical to each engine stepped on its own.
func TestPooledArenasInterleavedMatchAlone(t *testing.T) {
	kp, tp, kf, tf := poolRigs(t, 150)
	clean := attack.CleanScenario()
	ks, err := sim.NewKhepera(sim.LabMission(), &clean, 13)
	if err != nil {
		t.Fatal(err)
	}
	rigs := []struct {
		p      robot.Profile
		frames []poolFrame
	}{{kp, kf}, {robot.Khepera(ks), recordFrames(t, ks.Sim.Step, 150)}, {tp, tf}}

	alone := make([][][]uint64, len(rigs))
	for r, rig := range rigs {
		eng := profileEngine(t, rig.p)
		for i, f := range rig.frames {
			out, err := eng.Step(f.u, f.readings)
			if err != nil {
				t.Fatalf("rig %d (%s) frame %d: %v", r, rig.p.Robot, i, err)
			}
			alone[r] = append(alone[r], fingerprint(out))
		}
	}

	engines := make([]*core.Engine, len(rigs))
	for r, rig := range rigs {
		engines[r] = profileEngine(t, rig.p)
	}
	for i := 0; i < 150; i++ {
		for r, rig := range rigs {
			if i >= len(rig.frames) {
				continue
			}
			out, err := engines[r].Step(rig.frames[i].u, rig.frames[i].readings)
			if err != nil {
				t.Fatalf("rig %d (%s) frame %d: %v", r, rig.p.Robot, i, err)
			}
			if !equalBits(fingerprint(out), alone[r][i]) {
				t.Fatalf("rig %d (%s) frame %d: interleaved output differs from the engine stepped alone", r, rig.p.Robot, i)
			}
		}
	}
}

// TestEngineStepAllocs pins the steady-state allocation count of one
// sequential engine step per platform (the count per-mode arenas gave).
// Borrowing arenas from the pool must cost nothing once it is warm.
func TestEngineStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	kp, tp, kf, tf := poolRigs(t, 120)
	for _, c := range []struct {
		p      robot.Profile
		frames []poolFrame
		want   float64
	}{
		{kp, kf, 103},
		{tp, tf, 100},
	} {
		eng := profileEngine(t, c.p)
		// Warm up: the first steps size the arenas and the engine's
		// lazily built buffers.
		next := 0
		for ; next < 10; next++ {
			if _, err := eng.Step(c.frames[next].u, c.frames[next].readings); err != nil {
				t.Fatal(err)
			}
		}
		got := testing.AllocsPerRun(100, func() {
			f := c.frames[next]
			next++
			if _, err := eng.Step(f.u, f.readings); err != nil {
				t.Fatal(err)
			}
		})
		if got != c.want {
			t.Errorf("%s: %v allocs per engine step, want %v", c.p.Robot, got, c.want)
		}
	}
}
