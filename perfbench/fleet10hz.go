package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"roboads/internal/detect"
	"roboads/internal/fleet"
	"roboads/internal/store"
	"roboads/internal/telemetry"
)

const (
	// tick is the control period of both robots (dt = 0.1 s): each
	// simulated robot sends one frame per tick.
	tick = 100 * time.Millisecond
	// ackLimit is the latency a verdict must meet: one control period.
	ackLimit = 100 * time.Millisecond
	// nominalRobots fixes the nominal load (10 frames/s each) at about
	// half of the durable fleet's capacity on the 2-CPU reference host.
	nominalRobots = 32
	// commitWindow is the group-commit window of the durable fleet.
	commitWindow = 2 * time.Millisecond
	// searchProbes is how many offered rates the sustained_hz search
	// tries; searchStart is its first robot count.
	searchProbes = 10
	searchStart  = 64
	// maxRobots caps the search (and the sessions a manager may host).
	maxRobots = 512
	// maxNominal keeps the nominal phase inside the shortest lab
	// mission (Tamiya reaches its goal after 15 to 16 s).
	maxNominal = 14 * time.Second
	// missions is how many distinct missions the robots replay;
	// simulator set-up (path planning) dominates input generation.
	missions = 16
	// leadTime separates session creation from the first due frame.
	leadTime = 50 * time.Millisecond
)

// fleetRig is one durable in-process fleet manager under test.
type fleetRig struct {
	m   *fleet.Manager
	reg *telemetry.Registry
	tr  *telemetry.Tracer
}

func startFleet(dir string, traced bool) (*fleetRig, error) {
	rig := &fleetRig{reg: telemetry.NewRegistry()}
	if traced {
		rig.tr = telemetry.NewTracer(rig.reg)
	}
	m, err := fleet.NewManager(fleet.Config{
		Build:       fleet.DefaultBuilder(),
		Metrics:     rig.reg,
		Trace:       rig.tr,
		MaxSessions: 2 * maxRobots,
		Durability:  fleet.Durability{Dir: dir, CommitWindow: commitWindow},
	})
	if err != nil {
		return nil, err
	}
	rig.m = m
	return rig, nil
}

func (r *fleetRig) create(streams []*stream) ([]string, error) {
	ids := make([]string, len(streams))
	for i, s := range streams {
		info, err := r.m.Create(fleet.Spec{Robot: s.robot})
		if err != nil {
			return nil, err
		}
		ids[i] = info.ID
	}
	return ids, nil
}

func (r *fleetRig) close(ids []string) {
	for _, id := range ids {
		_ = r.m.Close(id) // teardown only; the frames were already checked
	}
}

func (r *fleetRig) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return r.m.Shutdown(ctx)
}

// phase is one open-loop drive of n robots at 10 Hz each.
type phase struct {
	n, perRobot int
	acks        []float64 // ms from each frame's due time, in due order; +Inf when it failed
	late        []float64 // ms the generator ran behind each due time
	admit       []float64 // µs spent in SubmitBatch
	depth       []float64 // sampled fleet queue depth
	failed      int
	wall        time.Duration
	serverCPU   time.Duration
	clientCPU   time.Duration
	reports     [][]*detect.Report // per robot, per frame
	errs        [][]error
}

func (p *phase) frames() int { return p.n * p.perRobot }

// drive runs the open loop: min(nproc, n) generator goroutines, each
// locked to an OS thread so its own CPU can be told apart from the
// fleet's, submit the pre-generated frames of their robots at their
// due times; a waiter per robot collects the acks. Each frame is timed
// from when it was due, so a late generator or a stalled fleet shows
// up in the latency of every frame it delays.
func (r *fleetRig) drive(ids []string, streams []*stream, perRobot int) *phase {
	n := len(ids)
	p := &phase{n: n, perRobot: perRobot}
	p.reports = make([][]*detect.Report, n)
	p.errs = make([][]error, n)
	acks := make([][]float64, n)
	type pending struct {
		b   *fleet.PendingBatch
		due time.Time
		k   int
		sp  *telemetry.Span
	}
	waitCh := make([]chan pending, n)
	var waiters sync.WaitGroup
	for i := range ids {
		p.reports[i] = make([]*detect.Report, perRobot)
		p.errs[i] = make([]error, perRobot)
		acks[i] = make([]float64, perRobot)
		for k := range acks[i] {
			acks[i][k] = math.Inf(1)
		}
		waitCh[i] = make(chan pending, perRobot) // one slot per frame: the generator never blocks
		waiters.Add(1)
		go func(i int) {
			defer waiters.Done()
			for pd := range waitCh[i] {
				res, err := pd.b.Wait(context.Background())
				now := time.Now()
				pd.sp.Finish()
				if err == nil {
					p.reports[i][pd.k], err = res[0].Report, res[0].Err
				}
				p.errs[i][pd.k] = err
				acks[i][pd.k] = float64(now.Sub(pd.due)) / 1e6
			}
		}(i)
	}

	stopDepth := make(chan struct{})
	depthDone := make(chan struct{})
	go func() {
		defer close(depthDone)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stopDepth:
				return
			case <-t.C:
				p.depth = append(p.depth, r.reg.GaugeValue(fleet.MetricQueueDepth))
			}
		}
	}()

	gens := min(runtime.NumCPU(), n)
	lates := make([][]float64, gens)
	admits := make([][]float64, gens)
	clientCPU := make([]time.Duration, gens)
	start := time.Now().Add(leadTime)
	cpu0 := selfCPU()
	var wg sync.WaitGroup
	for g := 0; g < gens; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			own0 := threadCPU()
			var inSubmit time.Duration
			for k := 0; k < perRobot; k++ {
				for i := g; i < n; i += gens {
					due := start.Add(time.Duration(k)*tick + time.Duration(i)*tick/time.Duration(n))
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
					now := time.Now()
					lates[g] = append(lates[g], float64(now.Sub(due))/1e6)
					fr := streams[i].frames[k]
					fr.Span = r.tr.Begin(ids[i], now)
					fr.Span.SetK(k)
					c0 := threadCPU()
					b, err := r.m.SubmitBatch(ids[i], []fleet.BatchFrame{fr})
					inSubmit += threadCPU() - c0
					admits[g] = append(admits[g], float64(time.Since(now))/1e3)
					if err != nil {
						fr.Span.Drop()
						p.errs[i][k] = err
						continue
					}
					waitCh[i] <- pending{b: b, due: due, k: k, sp: fr.Span}
				}
			}
			clientCPU[g] = threadCPU() - own0 - inSubmit
		}(g)
	}
	wg.Wait()
	close(stopDepth)
	<-depthDone
	for i := range waitCh {
		close(waitCh[i])
	}
	waiters.Wait()
	p.wall = time.Since(start)

	for g := range lates {
		p.late = append(p.late, lates[g]...)
		p.admit = append(p.admit, admits[g]...)
		p.clientCPU += clientCPU[g]
	}
	p.serverCPU = selfCPU() - cpu0 - p.clientCPU
	for k := 0; k < perRobot; k++ {
		for i := range acks {
			p.acks = append(p.acks, acks[i][k])
		}
	}
	return p
}

// check compares every report of the phase with its stream's reference
// and marks mismatches and errors failed (their ack becomes +Inf).
func (p *phase) check(streams []*stream) {
	for i := 0; i < p.n; i++ {
		for k := 0; k < p.perRobot; k++ {
			if p.errs[i][k] != nil || !streams[i].matches(k, p.reports[i][k]) {
				p.failed++
				p.acks[k*p.n+i] = inf
			}
		}
	}
}

// passes reports whether the fleet sustained the phase's offered rate:
// p99 ack within one control period, no failed frame, and a queue that
// did not grow (mean depth over the last third of the phase at most
// twice that of the first third, plus one frame of slack).
func (p *phase) passes() bool {
	if p.failed > 0 || len(p.acks) == 0 {
		return false
	}
	sorted := append([]float64(nil), p.acks...)
	sort.Float64s(sorted)
	if percentile(sorted, 99) > float64(ackLimit)/1e6 {
		return false
	}
	third := len(p.depth) / 3
	if third == 0 {
		return true
	}
	return mean(p.depth[2*third:]) <= 2*mean(p.depth[:third])+1
}

// searchSustained finds the highest robot count (×10 Hz) the fleet
// sustains: doubling from searchStart until a rate is missed, then
// bisecting, searchProbes probes at most. It returns the frame rate the
// highest passing probe delivered (frames over its wall time, first
// due frame to last ack) and a per-probe log.
func searchSustained(f func(n int) (*phase, error)) (float64, []string, error) {
	lo, hi := 0, 0 // highest pass, lowest fail (0: none yet)
	rate := 0.0    // frames/s delivered by the highest passing probe
	n := searchStart
	var log []string
	for probe := 0; probe < searchProbes; probe++ {
		p, err := f(n)
		if err != nil {
			return 0, log, err
		}
		ok := p.passes()
		verdict := map[bool]string{true: "sustained", false: "missed"}
		line := fmt.Sprintf("probe %d: %d robots (%d Hz) %s", probe, n, n*10, verdict[ok])
		if !ok && probe+1 < searchProbes {
			// A rate is missed only when a second probe misses it too:
			// one stall of the shared host must not decide the figure.
			probe++
			if p, err = f(n); err != nil {
				return 0, log, err
			}
			ok = p.passes()
			line += ", retried: " + verdict[ok]
		}
		log = append(log, line)
		if ok {
			lo, rate = n, float64(p.frames())/p.wall.Seconds()
		} else {
			hi = n
		}
		switch {
		case hi == 0:
			n = min(2*n, maxRobots)
		default:
			n = (lo + hi) / 2
		}
		if n == lo || n == hi || n == 0 {
			break
		}
	}
	return rate, log, nil
}

// fleetWorkload is the 10 Hz open-loop durable fleet.
func fleetWorkload(o opts) (*result, error) {
	res := newResult()
	root := filepath.Join(o.work, "fleet")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	nominalDur := min(o.seconds/2, maxNominal)
	probeDur := (o.seconds - nominalDur) / searchProbes
	if o.nominalOnly {
		nominalDur, probeDur = min(o.seconds, maxNominal), 0
	}
	perRobot := int(nominalDur / tick)
	probeFrames := int(probeDur / tick)
	pool, err := genStreams(o.seed, missions, max(perRobot, probeFrames), false)
	if err != nil {
		return nil, err
	}
	for _, s := range pool {
		if len(s.frames) < max(perRobot, probeFrames) {
			return nil, fmt.Errorf("fleet-10hz: %s mission ends after %d frames; the run needs %d", s.robot, len(s.frames), max(perRobot, probeFrames))
		}
	}
	// Robot i replays mission i mod missions: sessions are independent,
	// so robots sharing a mission share its reference too.
	streams := make([]*stream, maxRobots)
	for i := range streams {
		streams[i] = pool[i%missions]
	}
	// Set-up: a durable manager on a fresh state directory plus the
	// nominal sessions, setupReps times; the median is reported and the
	// last rig serves the run.
	var rig *fleetRig
	var ids []string
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		if rig != nil {
			if err := rig.shutdown(); err != nil {
				return nil, err
			}
		}
		dir := filepath.Join(root, fmt.Sprintf("state-%d", rep))
		t0 := time.Now()
		if rig, err = startFleet(dir, o.trace); err != nil {
			return nil, err
		}
		if ids, err = rig.create(streams[:nominalRobots]); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer rig.shutdown()
	res.set("setup_s", median(setups))

	if err := references(pool, max(perRobot, probeFrames)); err != nil {
		return nil, err
	}
	rss := startRSS()
	before, err := scrapeRegistry(rig.reg)
	if err != nil {
		return nil, err
	}
	nom := rig.drive(ids, streams[:nominalRobots], perRobot)
	after, err := scrapeRegistry(rig.reg)
	if err != nil {
		return nil, err
	}
	rig.close(ids)
	nom.check(streams)
	res.Attempted += int64(nom.frames())
	res.Failed += int64(nom.failed)

	acks := windowed(nom.acks, windowSize)
	late := summarize(nom.late)
	res.notef("fleet-10hz nominal: %d robots x 10 Hz for %v, %d frames, %d failed, generator late p50 %.3f ms p%g %.3f ms, client CPU %.2f us/frame",
		nominalRobots, nominalDur, nom.frames(), nom.failed, late.P50, late.TailPct, late.TailVal,
		float64(nom.clientCPU)/1e3/float64(nom.frames()))
	pooled := summarize(nom.acks)
	res.notef("fleet-10hz ack over all %d frames: p50 %.3f ms p%g %.3f ms", pooled.N, pooled.P50, pooled.TailPct, pooled.TailVal)
	res.setLatency("ack_p50_ms", "ack_p99_ms", acks)
	res.setN("frames_per_s", float64(nom.frames()-nom.failed)/nom.wall.Seconds(), nom.frames())
	res.setN("cpu_us_per_frame", float64(nom.serverCPU)/1e3/float64(nom.frames()), nom.frames())

	if o.trace {
		d := after.delta(before)
		frames := float64(nom.frames())
		qw, _ := d.histMean(telemetry.MetricFrameStageSeconds(telemetry.StageQueueWait), 1e3)
		fs, _ := d.histMean(telemetry.MetricFrameStageSeconds(telemetry.StageFsync), 1e3)
		wa, _ := d.histMean(telemetry.MetricFrameStageSeconds(telemetry.StageWALAppend), 1e6)
		cb, _ := d.histMean(store.MetricCommitBatchFrames, 1)
		res.setN("fleet-10hz.fleet.queue_wait_ms", qw, nom.frames())
		res.setN("fleet-10hz.fleet.admit_us", mean(nom.admit), len(nom.admit))
		res.set("fleet-10hz.fleet.queue_depth_max", maxOf(nom.depth))
		res.set("fleet-10hz.fleet.reject_ratio", d[fleet.MetricRejectedFrames]/frames)
		res.setN("fleet-10hz.store.fsync_ms", fs, nom.frames())
		res.setN("fleet-10hz.store.wal_append_us", wa, nom.frames())
		res.set("fleet-10hz.store.commit_batch_frames", cb)
		res.set("fleet-10hz.store.fsyncs_per_kframe", d[store.MetricWALFsyncs]/frames*1e3)
		res.setTail("fleet-10hz.gen.late_ms", late)
		res.setN("fleet-10hz.client.cpu_us_per_frame", float64(nom.clientCPU)/1e3/frames, nom.frames())
	}
	if o.nominalOnly {
		res.set("peak_rss_mb", rss.Stop())
		return res, nil
	}

	sustained, log, err := searchSustained(func(n int) (*phase, error) {
		pids, err := rig.create(streams[:n])
		if err != nil {
			return nil, err
		}
		p := rig.drive(pids, streams[:n], probeFrames)
		rig.close(pids)
		p.check(streams)
		res.Attempted += int64(p.frames())
		res.Failed += int64(p.failed)
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes, log...)
	res.notef("fleet-10hz sustained_hz %.1f frames/s (highest offered rate with p99 <= %v, no failure, no queue growth)", sustained, ackLimit)
	res.set("peak_rss_mb", rss.Stop())
	return res, nil
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
