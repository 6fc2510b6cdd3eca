package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"roboads/client"
	"roboads/internal/api"
	"roboads/internal/fleet"
	"roboads/internal/router"
	"roboads/internal/store"
	"roboads/internal/telemetry"
)

const (
	// window is the frames each upload stream keeps in flight.
	window = 32
	// traceFrames caps an uploaded trace's length; traces is how many
	// distinct attack traces the uploads cycle through.
	traceFrames = 400
	traces      = 16
	// promoteAfter is the follower's primary-silence tolerance.
	promoteAfter = 500 * time.Millisecond
	readyTimeout = 20 * time.Second
)

// node is one spawned roboads process.
type node struct {
	base string
	cmd  *exec.Cmd
	log  *os.File
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

func spawn(bin, dir, name string, args ...string) (*node, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	log, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append(args, "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = log, log
	// The node dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("spawn %s: %w", name, err)
	}
	return &node{base: "http://" + addr, cmd: cmd, log: log}, nil
}

// kill SIGKILLs the node and waits for it to exit.
func (n *node) kill() {
	_ = n.cmd.Process.Kill() // already exited is fine
	done := make(chan struct{})
	go func() {
		_ = n.cmd.Wait() // the exit status of a stopped node is not a result
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		_ = n.cmd.Process.Kill()
		<-done
	}
	n.log.Close()
}

// poll calls f every 2 ms until it succeeds or timeout passes.
func poll(timeout time.Duration, f func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !f() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}

func httpOK(url string) bool {
	resp, err := http.Get(url)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}

// cluster is a primary acking only after its follower's fsync, the
// follower, and a router fronting the primary.
type cluster struct {
	primary, follower, router *node
}

func (c *cluster) nodes() []*node { return []*node{c.primary, c.follower, c.router} }

func (c *cluster) stop() {
	for _, n := range c.nodes() {
		if n != nil {
			n.kill()
		}
	}
}

// startCluster spawns the three nodes and waits until the router
// answers ready and the follower's replication stream is connected (no
// ack before then would bind the follower).
func startCluster(bin, dir string, traced bool) (*cluster, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c := &cluster{}
	var err error
	common := []string{"serve", "-scenario=-1", "-commit-window", commitWindow.String()}
	c.primary, err = spawn(bin, dir, "primary", append(common,
		"-trace="+strconv.FormatBool(traced), "-state-dir", filepath.Join(dir, "p"), "-ack-policy", "follower")...)
	if err == nil {
		c.follower, err = spawn(bin, dir, "follower", append(common,
			"-trace=false", "-state-dir", filepath.Join(dir, "f"), "-follow", c.primary.base,
			"-promote-after", promoteAfter.String())...)
	}
	if err == nil {
		c.router, err = spawn(bin, dir, "router", "route", "-nodes", c.primary.base, "-health-interval", "50ms")
	}
	if err != nil {
		c.stop()
		return nil, err
	}
	ok := poll(readyTimeout, func() bool {
		s, err := scrapeURL(context.Background(), c.primary.base)
		return err == nil && s[fleet.MetricReplFollowers] >= 1
	}) && poll(readyTimeout, func() bool { return httpOK(c.router.base + "/readyz") })
	if !ok {
		c.stop()
		return nil, fmt.Errorf("cluster in %s not ready within %v (see its *.log)", dir, readyTimeout)
	}
	return c, nil
}

// cpu is the nodes' total CPU time.
func (c *cluster) cpu() (time.Duration, error) {
	var sum time.Duration
	for _, n := range c.nodes() {
		t, err := pidCPU(n.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += t
	}
	return sum, nil
}

// replayWindow is the span of one window of the throughput note.
const replayWindow = 5 * time.Second

// perWindow is the frames per second answered in each whole
// replayWindow after start.
func perWindow(start time.Time, replied []time.Time) []float64 {
	var counts []float64
	for _, t := range replied {
		w := int(t.Sub(start) / replayWindow)
		for len(counts) <= w {
			counts = append(counts, 0)
		}
		counts[w]++
	}
	if len(counts) > 0 {
		counts = counts[:len(counts)-1] // the last window is partial
	}
	for i := range counts {
		counts[i] /= replayWindow.Seconds()
	}
	return counts
}

// peakRSS is the nodes' summed peak resident set size in MB.
func (c *cluster) peakRSS() float64 {
	var kb float64
	for _, n := range c.nodes() {
		kb += statusKB(strconv.Itoa(n.cmd.Process.Pid), "VmHWM")
	}
	return kb / 1024
}

// countingConn counts socket reads that returned data: with the server
// flushing replies once per greedy batch, replies per read is the
// client's view of the batch size.
type countingConn struct {
	net.Conn
	reads *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.reads.Add(1)
	}
	return n, err
}

// upload is one session's trace upload.
type upload struct {
	id    string
	trace *stream
	lines []api.ReplyLine
	sent  []time.Time // when each frame was sent
	rtts  []float64   // ms from send to reply
	err   error
}

// uploadAll runs the closed loop: one stream per CPU, each uploading
// traces back to back (a new session per trace) with window frames in
// flight, until d has passed; every sent frame is then answered before
// it returns. The last frame of each trace is held back for the
// failover check.
func uploadAll(c *client.Client, pool []*stream, d time.Duration) ([]*upload, time.Duration) {
	conns := runtime.NumCPU()
	var mu sync.Mutex
	var ups []*upload
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for s := 0; s < conns; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for j := s; time.Now().Before(deadline); j += conns {
				u := &upload{trace: pool[j%len(pool)]}
				u.err = u.run(c, deadline)
				mu.Lock()
				ups = append(ups, u)
				mu.Unlock()
			}
		}(s)
	}
	wg.Wait()
	return ups, time.Since(start)
}

func (u *upload) run(c *client.Client, deadline time.Time) error {
	ctx := context.Background()
	info, err := c.Create(ctx, api.CreateRequest{Robot: u.trace.robot})
	if err != nil {
		return err
	}
	u.id = info.ID
	st, err := c.Stream(ctx, u.id, true)
	if err != nil {
		return err
	}
	defer st.Close()
	// slots is the window: a send waits while window frames are
	// unanswered and reads the clock only once it holds a slot, so a
	// round trip never includes the wait for the window.
	slots := make(chan struct{}, window)
	sent := make(chan time.Time, window)
	sendErr := make(chan error, 1)
	go func() {
		defer close(sent)
		n := len(u.trace.wire) - 1
		for k := 0; k < n && time.Now().Before(deadline); k++ {
			slots <- struct{}{}
			t := time.Now()
			if err := st.Send(u.trace.wire[k]); err != nil {
				sendErr <- err
				return
			}
			sent <- t
		}
		sendErr <- st.CloseSend()
	}()
	var recvErr error
	for t := range sent {
		// After an error, drain, so the sender sees the closed stream
		// and ends.
		if recvErr == nil {
			line, err := st.Recv()
			if err != nil {
				recvErr = fmt.Errorf("session %s reply %d: %w", u.id, len(u.lines), err)
				st.Close()
			} else {
				u.sent = append(u.sent, t)
				u.rtts = append(u.rtts, float64(time.Since(t))/1e6)
				u.lines = append(u.lines, line)
			}
		}
		<-slots
	}
	if err := <-sendErr; recvErr != nil || err != nil {
		return errors.Join(recvErr, err)
	}
	if _, err := st.Recv(); !errors.Is(err, io.EOF) {
		return fmt.Errorf("session %s: stream did not end after the last reply: %v", u.id, err)
	}
	return nil
}

// check counts the upload's frames and those whose reply is not the
// reference report, and sets a failed frame's round trip to +Inf;
// every frame of an upload that broke off counts as failed.
func (u *upload) check() (attempted, failed int) {
	attempted = max(1, len(u.lines))
	for k, line := range u.lines {
		if u.err != nil || line.Error != "" || line.K != u.trace.wire[k].K || !u.trace.matchesWire(k, line.Report) {
			failed++
			u.rtts[k] = inf
		}
	}
	if u.err != nil && len(u.lines) == 0 {
		u.sent, u.rtts = append(u.sent, time.Time{}), append(u.rtts, inf)
		failed = 1
	}
	return attempted, failed
}

// checkFollower kills the primary, waits for the follower to promote,
// and checks that it holds every acked frame of every session: its
// applied count equals the acked count, and stepping the next frame of
// the trace there gives the reference report. It returns frames
// attempted (one per check step) and failed (lost acked frames plus
// wrong check steps).
func checkFollower(cl *cluster, ups []*upload) (attempted, failed int, err error) {
	cl.primary.kill()
	if !poll(readyTimeout, func() bool { return httpOK(cl.follower.base + "/readyz") }) {
		return 0, 0, fmt.Errorf("follower did not promote within %v", readyTimeout)
	}
	fc := client.New(cl.follower.base)
	var mu sync.Mutex
	err = parallel(len(ups), func(i int) error {
		u := ups[i]
		if u.id == "" {
			return nil
		}
		ctx := context.Background()
		lost, wrong := 0, 0
		st, err := fc.Status(ctx, u.id)
		switch {
		case err != nil:
			lost = len(u.lines)
		case st.FramesApplied != len(u.lines):
			lost = max(0, len(u.lines)-st.FramesApplied)
			wrong = 1
		default:
			k := len(u.lines)
			line, err := fc.Step(ctx, u.id, u.trace.wire[k])
			if err != nil || line.Error != "" || !u.trace.matchesWire(k, line.Report) {
				wrong = 1
			}
		}
		mu.Lock()
		attempted++
		failed += lost + wrong
		mu.Unlock()
		return nil
	})
	return attempted, failed, err
}

// replayWorkload is the HA bulk upload through router, primary and
// follower, all spawned from the binary under test.
func replayWorkload(o opts) (*result, error) {
	res := newResult()
	bin, err := filepath.Abs(o.bin)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("roboads binary: %w", err)
	}
	pool, err := genStreams(o.seed, traces, traceFrames, true)
	if err != nil {
		return nil, err
	}
	if err := references(pool, traceFrames); err != nil {
		return nil, err
	}

	var cl *cluster
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		if cl != nil {
			cl.stop()
		}
		t0 := time.Now()
		if cl, err = startCluster(bin, filepath.Join(o.work, fmt.Sprintf("cluster-%d", rep)), o.trace); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer cl.stop()
	res.set("setup_s", median(setups))

	var reads atomic.Int64
	tr := &http.Transport{
		MaxIdleConnsPerHost: 2 * runtime.NumCPU(),
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := (&net.Dialer{}).DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return countingConn{Conn: conn, reads: &reads}, nil
		},
	}
	defer tr.CloseIdleConnections()
	rc := client.New(cl.router.base, client.WithHTTPClient(&http.Client{Transport: tr}))

	ctx := context.Background()
	pBefore, err := scrapeURL(ctx, cl.primary.base)
	if err != nil {
		return nil, err
	}
	rBefore, err := scrapeURL(ctx, cl.router.base)
	if err != nil {
		return nil, err
	}
	srvCPU0, err := cl.cpu()
	if err != nil {
		return nil, err
	}
	cliCPU0, reads0 := selfCPU(), reads.Load()
	start := time.Now()
	ups, wall := uploadAll(rc, pool, o.seconds)
	cliCPU, nreads := selfCPU()-cliCPU0, reads.Load()-reads0
	srvCPU1, err := cl.cpu()
	if err != nil {
		return nil, err
	}
	pAfter, err := scrapeURL(ctx, cl.primary.base)
	if err != nil {
		return nil, err
	}
	rAfter, err := scrapeURL(ctx, cl.router.base)
	if err != nil {
		return nil, err
	}
	res.set("peak_rss_mb", cl.peakRSS())

	type sample struct {
		at  time.Time
		rtt float64
	}
	var all []sample
	acked := 0
	for _, u := range ups {
		a, f := u.check()
		res.Attempted += int64(a)
		res.Failed += int64(f)
		acked += a - f
		for k := range u.rtts {
			all = append(all, sample{u.sent[k], u.rtts[k]})
		}
		if u.err != nil {
			res.notef("upload to %s failed: %v", u.id, u.err)
		}
	}
	fa, ff, err := checkFollower(cl, ups)
	if err != nil {
		return nil, err
	}
	res.Attempted += int64(fa)
	res.Failed += int64(ff)

	sort.Slice(all, func(i, j int) bool { return all[i].at.Before(all[j].at) })
	rtts := make([]float64, len(all))
	for i, x := range all {
		rtts[i] = x.rtt
	}
	frames := float64(res.Attempted - int64(fa))
	ack := windowed(rtts, windowSize)
	var replied []time.Time
	for _, x := range all {
		if !math.IsInf(x.rtt, 1) {
			replied = append(replied, x.at.Add(time.Duration(x.rtt*1e6)))
		}
	}
	res.notef("replay-ha: %d uploads over %d streams, %d frames in %.2fs, window %d; follower check: %d sessions, %d failed",
		len(ups), runtime.NumCPU(), int(frames), wall.Seconds(), window, fa, ff)
	// Throughput falls through the run as the primary's replication
	// reads grow with its store, so a median over windows would pick one
	// point on a slope whose steepness follows the host; the whole-run
	// ratios average over it.
	res.notef("replay-ha frames/s per %v window: %.0f", replayWindow, perWindow(start, replied))
	res.setN("frames_per_s", float64(acked)/wall.Seconds(), int(frames))
	res.setN("cpu_us_per_frame", float64(srvCPU1-srvCPU0)/1e3/frames, int(frames))
	res.setLatency("ack_p50_ms", "ack_p99_ms", ack)
	if !o.trace {
		return res, nil
	}

	pd, rd := pAfter.delta(pBefore), rAfter.delta(rBefore)
	e2e, _ := pd.histMean(telemetry.MetricFrameE2ESeconds, 1e3)
	dec, nd := pd.histMean(telemetry.MetricFrameStageSeconds(telemetry.StageDecode), 1e6)
	rep, nr := pd.histMean(telemetry.MetricFrameStageSeconds(telemetry.StageReply), 1e3)
	aw, na := pd.histMean(fleet.MetricReplAckWait, 1e3)
	cb, nc := pd.histMean(store.MetricCommitBatchFrames, 1)
	rtt := mean(rtts)
	res.setN("replay-ha.http.decode_us", dec, nd)
	res.setN("replay-ha.http.reply_ms", rep, nr)
	res.setN("replay-ha.http.frames_per_batch", frames/float64(max(1, nreads)), int(nreads))
	res.setN("replay-ha.router.overhead_ms", rtt-e2e, int(frames))
	res.set("replay-ha.router.location_hit_ratio", rd[router.MetricLocationHits]/math.Max(1, rd[router.MetricProxied]))
	res.setN("replay-ha.repl.ack_wait_ms", aw, na)
	res.set("replay-ha.repl.degraded", pd[fleet.MetricReplDegraded])
	res.setN("replay-ha.store.commit_batch_frames", cb, nc)
	res.setN("replay-ha.client.rtt_ms", rtt, len(rtts))
	res.setN("replay-ha.client.cpu_us_per_frame", float64(cliCPU)/1e3/frames, int(frames))
	return res, nil
}
