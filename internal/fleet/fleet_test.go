package fleet

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"roboads/internal/attack"
	"roboads/internal/detect"
	"roboads/internal/mat"
	"roboads/internal/sim"
	"roboads/internal/telemetry"
	"roboads/internal/trace"
)

// kheperaFrames runs a clean simulated Khepera mission and returns its
// first n monitor-input frames — the same frames `roboads record` would
// write for this seed.
func kheperaFrames(t *testing.T, seed int64, n int) []trace.Frame {
	t.Helper()
	setup, err := sim.NewKhepera(sim.LabMission(), &attack.Scenario{}, seed)
	if err != nil {
		t.Fatalf("khepera setup: %v", err)
	}
	frames := make([]trace.Frame, 0, n)
	for len(frames) < n {
		rec, err := setup.Sim.Step()
		if err != nil {
			break
		}
		frame := trace.Frame{K: rec.K, U: rec.UPlanned, Readings: make(map[string][]float64, len(rec.Readings))}
		for name, z := range rec.Readings {
			frame.Readings[name] = z
		}
		frames = append(frames, frame)
		if rec.Done {
			break
		}
	}
	if len(frames) == 0 {
		t.Fatal("no frames generated")
	}
	return frames
}

// localReports steps frames through an in-process detector built by the
// same Builder the fleet uses, and returns the wire view of each report.
func localReports(t *testing.T, build Builder, spec Spec, frames []trace.Frame) []WireReport {
	t.Helper()
	stepper, _, err := build(spec)
	if err != nil {
		t.Fatalf("build local detector: %v", err)
	}
	defer stepper.Close()
	out := make([]WireReport, 0, len(frames))
	for _, frame := range frames {
		rep, err := stepper.StepContext(context.Background(), mat.Vec(frame.U), frameReadings(&frame))
		if err != nil {
			t.Fatalf("local step k=%d: %v", frame.K, err)
		}
		out = append(out, NewWireReport(rep))
	}
	return out
}

// TestFleetConcurrentSessionsMatchSequential is the determinism
// acceptance test: N sessions stepping interleaved frame streams through
// a shared shard pool produce bit-for-bit the reports of N sequential
// in-process detectors.
func TestFleetConcurrentSessionsMatchSequential(t *testing.T) {
	const sessions = 8
	seeds := []int64{11, 12, 13, 14}
	frameSets := make([][]trace.Frame, len(seeds))
	for i, seed := range seeds {
		frameSets[i] = kheperaFrames(t, seed, 40)
	}
	build := DefaultBuilder()
	want := make([][]WireReport, len(seeds))
	for i := range seeds {
		want[i] = localReports(t, build, Spec{Robot: "khepera"}, frameSets[i])
	}

	m, err := NewManager(Config{Workers: 4, QueueDepth: 4, Build: build})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown(context.Background())

	var wg sync.WaitGroup
	got := make([][]WireReport, sessions)
	errs := make([]error, sessions)
	for i := 0; i < sessions; i++ {
		info, err := m.Create(Spec{Robot: "khepera"})
		if err != nil {
			t.Fatalf("create session %d: %v", i, err)
		}
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			frames := frameSets[i%len(seeds)]
			for _, frame := range frames {
				var rep *detect.Report
				// Absorb backpressure like a well-behaved client.
				for {
					var err error
					rep, err = m.Step(context.Background(), id, mat.Vec(frame.U), frameReadings(&frame))
					if errors.Is(err, ErrBackpressure) {
						time.Sleep(time.Millisecond)
						continue
					}
					if err != nil {
						errs[i] = err
						return
					}
					break
				}
				got[i] = append(got[i], NewWireReport(rep))
			}
		}(i, info.ID)
	}
	wg.Wait()
	for i := 0; i < sessions; i++ {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i%len(seeds)]) {
			t.Fatalf("session %d reports diverged from sequential reference", i)
		}
	}
}

// scriptedStepper is a fake session pipeline whose steps block until
// released, making queue occupancy deterministic in tests.
type scriptedStepper struct {
	started chan struct{} // one receive per step entering
	release chan struct{} // one send per step allowed to finish
	steps   atomic.Int32
	closes  atomic.Int32
}

func newScriptedStepper() *scriptedStepper {
	return &scriptedStepper{started: make(chan struct{}, 64), release: make(chan struct{}, 64)}
}

func (s *scriptedStepper) StepContext(ctx context.Context, u mat.Vec, readings map[string]mat.Vec) (*detect.Report, error) {
	s.started <- struct{}{}
	<-s.release
	s.steps.Add(1)
	return &detect.Report{Decision: &detect.Decision{Iteration: int(s.steps.Load())}}, nil
}

func (s *scriptedStepper) Close() { s.closes.Add(1) }

func scriptedBuilder(st *scriptedStepper) Builder {
	return func(spec Spec) (Stepper, SessionInfo, error) {
		return st, SessionInfo{Robot: spec.Robot, Sensors: []string{"fake"}, Dt: 0.1}, nil
	}
}

func mustCreate(t *testing.T, m *Manager, spec Spec) SessionInfo {
	t.Helper()
	info, err := m.Create(spec)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	return info
}

func submitDummy(t *testing.T, m *Manager, id string) (*Pending, error) {
	t.Helper()
	return m.Submit(id, mat.VecOf(0, 0), map[string]mat.Vec{"fake": mat.VecOf(0)})
}

// TestFleetBackpressure pins the bounded-queue contract: a frame
// arriving at a full session queue is rejected with ErrBackpressure and
// a retry hint, counted, and not silently buffered.
func TestFleetBackpressure(t *testing.T) {
	st := newScriptedStepper()
	reg := telemetry.NewRegistry()
	m, err := NewManager(Config{
		Workers: 1, QueueDepth: 1, RetryAfter: 40 * time.Millisecond,
		Build: scriptedBuilder(st), Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	info := mustCreate(t, m, Spec{Robot: "fake"})

	// Frame 1: picked up by the lone worker, blocks inside the step.
	p1, err := submitDummy(t, m, info.ID)
	if err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	<-st.started // worker is now mid-step, queue empty

	// Frame 2 occupies the queue's one slot; frame 3 must be rejected.
	p2, err := submitDummy(t, m, info.ID)
	if err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	_, err = submitDummy(t, m, info.ID)
	if !errors.Is(err, ErrBackpressure) {
		t.Fatalf("submit 3 = %v, want ErrBackpressure", err)
	}
	var bp *BackpressureError
	if !errors.As(err, &bp) {
		t.Fatalf("submit 3 error %T does not unwrap to *BackpressureError", err)
	}
	if bp.SessionID != info.ID || bp.RetryAfter != 40*time.Millisecond {
		t.Fatalf("backpressure hint = %+v", bp)
	}
	if got := reg.CounterValue(MetricRejectedFrames); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
	if got := reg.GaugeValue(MetricQueueDepth); got != 1 {
		t.Fatalf("queue depth gauge = %g, want 1", got)
	}

	// Releasing the steps drains both accepted frames.
	st.release <- struct{}{}
	<-st.started
	st.release <- struct{}{}
	for i, p := range []*Pending{p1, p2} {
		if _, err := p.Wait(context.Background()); err != nil {
			t.Fatalf("pending %d: %v", i+1, err)
		}
	}
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if got := reg.CounterValue(MetricFrames); got != 2 {
		t.Fatalf("frames counter = %d, want 2", got)
	}
}

// TestFleetIdleEviction pins the janitor policy: only sessions that are
// idle past the timeout with nothing queued or running are evicted.
func TestFleetIdleEviction(t *testing.T) {
	st := newScriptedStepper()
	reg := telemetry.NewRegistry()
	// IdleTimeout configured but huge, so the real janitor never fires
	// during the test; the policy is exercised by calling evictIdle with
	// a manual clock.
	m, err := NewManager(Config{
		Workers: 1, QueueDepth: 2, IdleTimeout: time.Hour,
		Build: scriptedBuilder(st), Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown(context.Background())

	clock := time.Now()
	m.now = func() time.Time { return clock }

	idle := mustCreate(t, m, Spec{Robot: "fake"})
	busy := mustCreate(t, m, Spec{Robot: "fake"})
	p, err := submitDummy(t, m, busy.ID)
	if err != nil {
		t.Fatal(err)
	}
	<-st.started // busy session is mid-step

	clock = clock.Add(2 * time.Hour)
	m.evictIdle()

	if _, err := m.Info(idle.ID); !errors.Is(err, ErrSessionNotFound) {
		t.Fatalf("idle session Info = %v, want ErrSessionNotFound", err)
	}
	if _, err := m.Info(busy.ID); err != nil {
		t.Fatalf("busy session evicted: %v", err)
	}
	if got := reg.CounterValue(MetricEvictions); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if got := reg.GaugeValue(MetricSessionsLive); got != 1 {
		t.Fatalf("live gauge = %g, want 1", got)
	}

	// Finishing the step re-stamps activity; only a further idle period
	// evicts the now-quiet session.
	st.release <- struct{}{}
	if _, err := p.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	m.evictIdle()
	if _, err := m.Info(busy.ID); err != nil {
		t.Fatalf("just-active session evicted: %v", err)
	}
	clock = clock.Add(2 * time.Hour)
	waitUnscheduled(t, m, busy.ID)
	m.evictIdle()
	if _, err := m.Info(busy.ID); !errors.Is(err, ErrSessionNotFound) {
		t.Fatalf("idle session survived: %v", err)
	}
}

// waitUnscheduled waits until no shard worker holds session id. A
// worker sends the reply before it releases the session, and eviction
// skips sessions still scheduled, so a test that evicts right after a
// reply must wait for the release.
func waitUnscheduled(t *testing.T, m *Manager, id string) {
	t.Helper()
	m.mu.Lock()
	s := m.sessions[id]
	m.mu.Unlock()
	waitFor(t, "the worker to release "+id, func() bool { return !s.scheduled.Load() })
}

// TestFleetCloseAnswersQueuedFrames pins the session-close contract:
// the in-flight frame completes, queued frames are answered with
// ErrClosed, and the detector is closed exactly once.
func TestFleetCloseAnswersQueuedFrames(t *testing.T) {
	st := newScriptedStepper()
	m, err := NewManager(Config{Workers: 1, QueueDepth: 4, Build: scriptedBuilder(st)})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown(context.Background())
	info := mustCreate(t, m, Spec{Robot: "fake"})

	inflight, err := submitDummy(t, m, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	<-st.started
	queued, err := submitDummy(t, m, info.ID)
	if err != nil {
		t.Fatal(err)
	}

	closeDone := make(chan error, 1)
	go func() { closeDone <- m.Close(info.ID) }()

	// The queued frame is answered while the in-flight one still runs.
	if _, err := queued.Wait(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("queued frame err = %v, want ErrClosed", err)
	}
	st.release <- struct{}{}
	if _, err := inflight.Wait(context.Background()); err != nil {
		t.Fatalf("in-flight frame err = %v, want nil", err)
	}
	if err := <-closeDone; err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := st.closes.Load(); got != 1 {
		t.Fatalf("stepper closed %d times, want 1", got)
	}
	if err := m.Close(info.ID); !errors.Is(err, ErrSessionNotFound) {
		t.Fatalf("second close = %v, want ErrSessionNotFound", err)
	}
	if _, err := submitDummy(t, m, info.ID); !errors.Is(err, ErrSessionNotFound) {
		t.Fatalf("submit after close = %v, want ErrSessionNotFound", err)
	}
}

// TestFleetShutdownDrains pins graceful drain: every frame accepted
// before Shutdown is stepped and answered; everything after is rejected
// with ErrClosed.
func TestFleetShutdownDrains(t *testing.T) {
	st := newScriptedStepper()
	reg := telemetry.NewRegistry()
	m, err := NewManager(Config{Workers: 2, QueueDepth: 8, Build: scriptedBuilder(st), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	a := mustCreate(t, m, Spec{Robot: "fake"})
	b := mustCreate(t, m, Spec{Robot: "fake"})

	const perSession = 5
	var pendings []*Pending
	for i := 0; i < perSession; i++ {
		for _, id := range []string{a.ID, b.ID} {
			p, err := submitDummy(t, m, id)
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			pendings = append(pendings, p)
		}
	}
	// Let every queued step through.
	for i := 0; i < 2*perSession; i++ {
		st.release <- struct{}{}
	}
	done := make(chan error, 1)
	go func() { done <- m.Shutdown(context.Background()) }()

	for i, p := range pendings {
		if _, err := p.Wait(context.Background()); err != nil {
			t.Fatalf("accepted frame %d lost in drain: %v", i, err)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if got := reg.CounterValue(MetricFrames); got != 2*perSession {
		t.Fatalf("frames stepped = %d, want %d", got, 2*perSession)
	}
	if got := st.closes.Load(); got != 2 {
		t.Fatalf("steppers closed %d times, want 2", got)
	}
	if _, err := m.Create(Spec{Robot: "fake"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("create after shutdown = %v, want ErrClosed", err)
	}
	if _, err := submitDummy(t, m, a.ID); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after shutdown = %v, want ErrClosed", err)
	}
	if err := m.Shutdown(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("second shutdown = %v, want ErrClosed", err)
	}
}

// TestFleetSessionCap pins MaxSessions: creation beyond the cap is
// rejected with ErrTooManySessions until a slot frees up.
func TestFleetSessionCap(t *testing.T) {
	st := newScriptedStepper()
	m, err := NewManager(Config{Workers: 1, MaxSessions: 2, Build: scriptedBuilder(st)})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown(context.Background())
	first := mustCreate(t, m, Spec{Robot: "fake"})
	mustCreate(t, m, Spec{Robot: "fake"})
	if _, err := m.Create(Spec{Robot: "fake"}); !errors.Is(err, ErrTooManySessions) {
		t.Fatalf("create over cap = %v, want ErrTooManySessions", err)
	}
	if err := m.Close(first.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(Spec{Robot: "fake"}); err != nil {
		t.Fatalf("create after close = %v, want nil", err)
	}
}

// TestFleetUnknownRobot pins builder errors surfacing through Create
// without leaking the reserved slot.
func TestFleetUnknownRobot(t *testing.T) {
	m, err := NewManager(Config{Workers: 1, MaxSessions: 1, Build: DefaultBuilder()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown(context.Background())
	if _, err := m.Create(Spec{Robot: "roomba"}); err == nil {
		t.Fatal("create with unknown robot succeeded")
	}
	if _, err := m.Create(Spec{Robot: "khepera"}); err != nil {
		t.Fatalf("slot leaked by failed create: %v", err)
	}
}
