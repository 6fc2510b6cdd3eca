package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"roboads/internal/core"
	"roboads/internal/detect"
	"roboads/internal/robot"
	"roboads/internal/scenario"
	"roboads/internal/sim"
	"roboads/internal/world"
)

// suiteSetup is what the offline job pays before its first mission:
// generate and fingerprint the default suite, compile every scenario's
// attacks, and build one detector per scenario (mode construction with
// its observability checks).
func suiteSetup(seed int64) (*scenario.Suite, error) {
	s, err := scenario.Default(seed)
	if err != nil {
		return nil, err
	}
	if _, err := s.Hash(); err != nil {
		return nil, err
	}
	for i := range s.Scenarios {
		if _, err := s.Scenarios[i].Compile(1000); err != nil {
			return nil, err
		}
		p, err := robot.Named(s.Scenarios[i].Robot)
		if err != nil {
			return nil, err
		}
		det, err := p.NewDetector(core.DefaultEngineConfig(), detect.DefaultConfig())
		if err != nil {
			return nil, err
		}
		det.Close()
	}
	return s, nil
}

// mission is one timed scenario.RunOne call; i is its index in the
// run, so scenario i mod len(scenarios) of round i / len(scenarios).
type mission struct {
	i   int
	res *scenario.Result
	err error
	ms  float64
}

// roundMark is the wall clock and process CPU as a round starts.
type roundMark struct {
	at  time.Time
	cpu time.Duration
}

// rounds calls f(i) for i = 0, 1, 2, ... on workers goroutines until d
// has passed, then finishes the round of n calls in progress, so every
// i mod n ran equally often and every run has the same mix. It returns
// a mark as each round's first call starts plus one as the last call
// ends, and the first error of f, which stops the loop.
func rounds(workers, n int, d time.Duration, f func(i int) error) ([]roundMark, error) {
	var next atomic.Int64
	var limit atomic.Int64 // calls to make; set once d has passed
	limit.Store(math.MaxInt64)
	nn := int64(n)
	var mu sync.Mutex
	var marks []roundMark
	var first error
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if time.Now().After(deadline) {
					// Every index claimed so far is below next, so the
					// rounded-up limit leaves no claimed call out.
					limit.CompareAndSwap(math.MaxInt64, (next.Load()+nn-1)/nn*nn)
				}
				if i >= limit.Load() {
					return
				}
				if i%nn == 0 {
					m := roundMark{time.Now(), selfCPU()}
					mu.Lock()
					for int64(len(marks)) <= i/nn {
						marks = append(marks, roundMark{})
					}
					marks[i/nn] = m
					mu.Unlock()
				}
				if err := f(int(i)); err != nil {
					mu.Lock()
					first = cmp.Or(first, err)
					mu.Unlock()
					limit.Store(-1)
					return
				}
			}
		}()
	}
	wg.Wait()
	return append(marks, roundMark{time.Now(), selfCPU()}), first
}

// runMissions keeps min(nproc, scenarios) workers calling
// scenario.RunOne on the suite's scenarios in turn, in whole rounds of
// the suite, for d. The missions come back in index order.
func runMissions(s *scenario.Suite, d time.Duration) ([]mission, []roundMark) {
	nsc := len(s.Scenarios)
	var mu sync.Mutex
	var out []mission
	marks, _ := rounds(min(runtime.NumCPU(), nsc), nsc, d, func(i int) error {
		t0 := time.Now()
		r, err := scenario.RunOne(s.Scenarios[i%nsc], s.Seed, scenario.RunConfig{Trials: 1})
		m := mission{i: i, res: r, err: err, ms: float64(time.Since(t0)) / 1e6}
		mu.Lock()
		out = append(out, m)
		mu.Unlock()
		return nil
	})
	sort.Slice(out, func(a, b int) bool { return out[a].i < out[b].i })
	return out, marks
}

// checkMissions compares every mission with the suite reference and
// returns frames attempted, frames of missions that differ, in total
// and per round, and how many missions matched only up to the order in
// which their target delays were summed.
func checkMissions(ms []mission, ref *scenario.SuiteResult) (attempted, failed int64, failedIn []int64, reordered int) {
	nsc := len(ref.Results)
	for _, m := range ms {
		want := ref.Results[m.i%nsc]
		attempted += int64(want.Iterations)
		for len(failedIn) <= m.i/nsc {
			failedIn = append(failedIn, 0)
		}
		ok := m.err == nil
		if ok {
			var orderOnly bool
			ok, orderOnly = sameResult(*m.res, want)
			if orderOnly {
				reordered++
			}
		}
		if !ok {
			failed += int64(want.Iterations)
			failedIn[m.i/nsc] += int64(want.Iterations)
		}
	}
	return attempted, failed, failedIn, reordered
}

// sameResult reports whether got equals want in every exported field.
// MeanDelaySec is the one field that may differ: the scenario runner
// sums a result's per-target delays in map order, so the mean of the
// same delays can differ in its last bits from call to call. Each side's
// mean must still be exactly the mean of its own targets' delays summed
// in some order; orderOnly reports a match that needed this.
func sameResult(got, want scenario.Result) (ok, orderOnly bool) {
	g, w := canonicalDelay(got), canonicalDelay(want)
	gj, err1 := json.Marshal(g)
	wj, err2 := json.Marshal(w)
	if err1 != nil || err2 != nil || !bytes.Equal(gj, wj) {
		return false, false
	}
	return true, got.MeanDelaySec != want.MeanDelaySec
}

// canonicalDelay returns r with MeanDelaySec summed in sorted target
// order, if r's value is the mean of its detected targets' delays summed
// in some order; otherwise r unchanged. With one trial a target's
// DelaySec is its single delay, so the check is exact; with more, r is
// returned unchanged.
func canonicalDelay(r scenario.Result) scenario.Result {
	if r.Trials != 1 {
		return r
	}
	names := make([]string, 0, len(r.Targets))
	for name := range r.Targets {
		names = append(names, name)
	}
	sort.Strings(names)
	var delays []float64
	for _, name := range names {
		if t := r.Targets[name]; t.Missed == 0 && t.DelaySec >= 0 {
			delays = append(delays, t.DelaySec)
		}
	}
	if len(delays) == 0 || len(delays) > 6 {
		return r
	}
	sorted := meanInOrder(delays)
	xs := make([]float64, len(delays))
	permute(len(delays), func(p []int) bool {
		for i, j := range p {
			xs[i] = delays[j]
		}
		if meanInOrder(xs) != r.MeanDelaySec {
			return true
		}
		r.MeanDelaySec = sorted
		return false
	})
	return r
}

// meanInOrder sums xs from the first to the last, as the runner does,
// and divides by their count.
func meanInOrder(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// permute calls f with every ordering of 0..n-1 until f returns false.
func permute(n int, f func(p []int) bool) {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	var gen func(k int) bool
	gen = func(k int) bool {
		if k == n {
			return f(p)
		}
		for i := k; i < n; i++ {
			p[k], p[i] = p[i], p[k]
			if !gen(k + 1) {
				return false
			}
			p[k], p[i] = p[i], p[k]
		}
		return true
	}
	gen(0)
}

// suiteWorkload is the paper's own offline job: the default adversarial
// suite's missions, nproc at a time, each a scenario.RunOne call timed
// as one verdict. The reference is one untimed scenario.RunSuite of the
// same suite; every mission must equal its scenario's reference result
// bit for bit, up to the summation order of its mean delay
// (sameResult). Throughput, CPU
// per frame and latency are medians over rounds of the suite, so a slow
// spell of the shared host moves a few rounds rather than the figure.
func suiteWorkload(o opts) (*result, error) {
	res := newResult()
	var s *scenario.Suite
	var setups []float64
	for rep := 0; rep < suiteSetupReps; rep++ {
		if rep > 0 {
			// Spread the repetitions over a few seconds: the host's CPU
			// speed moves in bursts longer than one set-up.
			time.Sleep(100 * time.Millisecond)
		}
		t0 := time.Now()
		var err error
		if s, err = suiteSetup(o.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.set("setup_s", median(setups))
	ref, err := scenario.RunSuite(s, scenario.RunConfig{Trials: 1, Workers: runtime.NumCPU()})
	if err != nil {
		return nil, err
	}
	var roundFrames int64
	for _, r := range ref.Results {
		roundFrames += int64(r.Iterations)
	}

	d := o.seconds
	if o.trace {
		d /= 3 // the other thirds are the untraced and traced mission loops
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	rss := startRSS()
	missions, marks := runMissions(s, d)
	res.set("peak_rss_mb", rss.Stop())
	runtime.ReadMemStats(&ms1)
	attempted, failed, failedIn, reordered := checkMissions(missions, ref)
	res.Attempted, res.Failed = attempted, failed
	if reordered > 0 {
		res.notef("suite: %d of %d missions matched the reference only up to the order of their delay sum (MeanDelaySec differs in its last bits)",
			reordered, len(missions))
	}

	nsc := len(s.Scenarios)
	lat := make([]float64, len(missions))
	for i, m := range missions {
		lat[i] = m.ms
		if m.err != nil {
			lat[i] = inf
		}
	}
	var fps, cpus []float64
	for r := 0; r+1 < len(marks); r++ {
		wall := marks[r+1].at.Sub(marks[r].at).Seconds()
		fps = append(fps, float64(roundFrames-failedIn[r])/wall)
		cpus = append(cpus, float64(marks[r+1].cpu-marks[r].cpu)/1e3/float64(roundFrames))
	}
	wall := marks[len(marks)-1].at.Sub(marks[0].at)
	res.notef("suite: %d scenarios, %d rounds, %d missions, %d frames in %.2fs on %d workers; whole run %.1f frames/s, %.2f us CPU/frame",
		nsc, len(fps), len(missions), attempted, wall.Seconds(), min(runtime.NumCPU(), nsc),
		float64(attempted-failed)/wall.Seconds(), float64(marks[len(marks)-1].cpu-marks[0].cpu)/1e3/float64(attempted))
	res.notef("suite per round: frames/s %.0f, CPU us/frame %.0f", fps, cpus)
	res.Metrics["frames_per_s"] = measured{Value: median(fps), N: int(attempted), Windows: len(fps)}
	res.Metrics["cpu_us_per_frame"] = measured{Value: median(cpus), N: int(attempted), Windows: len(cpus)}
	res.setLatency("ack_p50_ms", "ack_p99_ms", windowed(lat, nsc))
	if !o.trace {
		return res, nil
	}

	res.setN("suite.scenario.mission_ms", mean(lat), len(lat))
	res.setN("suite.proc.allocs_per_frame", float64(ms1.Mallocs-ms0.Mallocs)/float64(attempted), int(attempted))
	res.set("suite.proc.gc_cycles", float64(ms1.NumGC-ms0.NumGC))
	// Tracing overhead: the same mission loop over the same scenarios in
	// whole rounds, first without and then with the engine Observer.
	base, err := tracedMissions(s, d, nil)
	if err != nil {
		return nil, err
	}
	lt, err := tracedMissions(s, d, &layerObserver{})
	if err != nil {
		return nil, err
	}
	res.Attempted += base.frames + lt.frames
	res.setN("suite.sim.setup_ms", float64(lt.setupNs)/1e6/float64(lt.missions), int(lt.missions))
	res.setN("suite.sim.frame_us", float64(lt.simNs)/1e3/float64(lt.frames), int(lt.frames))
	res.setN("suite.core.step_us", float64(lt.obs.engineNs.Load())/1e3/float64(lt.frames), int(lt.frames))
	res.setN("suite.detect.decide_us", float64(lt.detNs-lt.obs.engineNs.Load())/1e3/float64(lt.frames), int(lt.frames))
	modeSteps := lt.obs.modeSteps.Load()
	res.setN("suite.core.mode_step_us", float64(lt.obs.modeNs.Load())/1e3/float64(max(1, modeSteps)), int(modeSteps))
	res.set("suite.core.jacobi_fallback_ratio", float64(lt.jacobi)/float64(max(1, modeSteps)))
	bc := float64(base.cpu) / 1e3 / float64(base.frames)
	tc := float64(lt.cpu) / 1e3 / float64(lt.frames)
	res.notef("suite mission loop: untraced %.2f us CPU/frame over %d missions, traced %.2f over %d", bc, base.missions, tc, lt.missions)
	res.setN("cpu_us_per_frame", tc, int(lt.frames))
	res.set("trace.overhead_pct", (tc-bc)/bc*100)
	return res, nil
}

// layerObserver accumulates the engine's exported per-step and per-mode
// timings; the mode bank may call ModeStep from pool goroutines.
type layerObserver struct {
	engineNs, modeNs, modeSteps atomic.Int64
}

func (l *layerObserver) EngineStep(s *core.StepStats) { l.engineNs.Add(s.WallNanos) }
func (l *layerObserver) ModeStep(_ int, _ string, nanos int64, ok bool) {
	if ok {
		l.modeNs.Add(nanos)
		l.modeSteps.Add(1)
	}
}
func (l *layerObserver) PoolWait(int64)        {}
func (l *layerObserver) DroppedReading(string) {}

// loopTrace is what the traced mission loop measured.
type loopTrace struct {
	missions, frames int64
	setupNs          int64 // simulator construction, path planning included
	simNs, detNs     int64
	jacobi           int64
	cpu              time.Duration
	obs              *layerObserver
}

// add folds one mission's counts into lt.
func (lt *loopTrace) add(m *loopTrace) {
	lt.missions++
	lt.frames += m.frames
	lt.setupNs += m.setupNs
	lt.simNs += m.simNs
	lt.detNs += m.detNs
}

// tracedMissions drives every scenario of the suite through the
// benchmark's own mission loop in whole rounds for d: simulator
// construction, each simulator step and each detector StepContext are
// timed, and with a non-nil obs an engine Observer reports the engine's
// own step and mode timings. Detector time minus the engine's step is
// the decision maker's share.
func tracedMissions(s *scenario.Suite, d time.Duration, obs *layerObserver) (*loopTrace, error) {
	lt := &loopTrace{obs: obs}
	nsc := len(s.Scenarios)
	var mu sync.Mutex
	jac0 := core.JacobiFallbacks()
	marks, err := rounds(min(runtime.NumCPU(), nsc), nsc, d, func(i int) error {
		m, err := tracedMission(s.Scenarios[i%nsc], s.Seed, obs)
		if err != nil {
			return err
		}
		mu.Lock()
		lt.add(m)
		mu.Unlock()
		return nil
	})
	lt.jacobi, lt.cpu = core.JacobiFallbacks()-jac0, marks[len(marks)-1].cpu-marks[0].cpu
	return lt, err
}

// arena mirrors the scenario runner's choice of mission for a world.
func arena(w string) sim.Mission {
	if w == "warehouse" {
		return sim.Mission{
			Map:          world.WarehouseArena(),
			Start:        world.Point{X: 0.6, Y: 0.6},
			StartHeading: 0.4,
			Goal:         world.Point{X: 7.2, Y: 5.4},
		}
	}
	return sim.LabMission()
}

func tracedMission(sc scenario.Scenario, seed int64, obs *layerObserver) (*loopTrace, error) {
	compiled, err := sc.Compile(1000)
	if err != nil {
		return nil, err
	}
	m := &loopTrace{}
	t0 := time.Now()
	var step func() (*sim.StepRecord, error)
	var p robot.Profile
	switch sc.Robot {
	case "khepera":
		setup, err := sim.NewKhepera(arena(sc.World), &compiled, seed)
		if err != nil {
			return nil, err
		}
		step, p = setup.Sim.Step, robot.Khepera(setup)
	case "tamiya":
		setup, err := sim.NewTamiya(arena(sc.World), &compiled, seed)
		if err != nil {
			return nil, err
		}
		step, p = setup.Sim.Step, robot.Tamiya(setup)
	default:
		return nil, fmt.Errorf("scenario %q: unknown robot %q", sc.Name, sc.Robot)
	}
	m.setupNs = int64(time.Since(t0))
	ecfg := core.DefaultEngineConfig()
	if obs != nil {
		ecfg.Observer = obs
	}
	det, err := p.NewDetector(ecfg, detect.DefaultConfig())
	if err != nil {
		return nil, err
	}
	defer det.Close()
	limit := sc.Iterations
	if limit <= 0 {
		limit = scenario.MaxIterations
	}
	ctx := context.Background()
	for m.frames < int64(limit) {
		t0 := time.Now()
		rec, err := step()
		t1 := time.Now()
		if err != nil {
			break // mission over
		}
		if _, err := det.StepContext(ctx, rec.UPlanned, rec.Readings); err != nil {
			return nil, fmt.Errorf("scenario %q k=%d: %w", sc.Name, rec.K, err)
		}
		m.simNs += int64(t1.Sub(t0))
		m.detNs += int64(time.Since(t1))
		m.frames++
		if rec.Done {
			break
		}
	}
	return m, nil
}
