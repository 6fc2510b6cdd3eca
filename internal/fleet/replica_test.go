package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"roboads/internal/mat"
	"roboads/internal/telemetry"
	"roboads/internal/trace"
)

// replPair is a durable AckFollower primary behind an HTTP server and a
// follower replicating it in-process.
type replPair struct {
	primary, follower *Manager
	preg, freg        *telemetry.Registry
	srv               *httptest.Server
}

// newReplPair starts the pair and returns once the replication stream
// is attached. cfg shapes the primary (durability, ack policy and
// metrics are filled in); onRound, when non-nil, observes every shipper
// round. Sessions created in setup exist before the stream connects.
func newReplPair(t *testing.T, cfg Config, onRound func(read []string), setup func(m *Manager)) *replPair {
	t.Helper()
	p := &replPair{preg: telemetry.NewRegistry(), freg: telemetry.NewRegistry()}
	cfg.Build = DefaultBuilder()
	cfg.Metrics = p.preg
	cfg.Durability.Dir = t.TempDir()
	cfg.AckPolicy = AckFollower
	if cfg.AckTimeout == 0 {
		cfg.AckTimeout = 3 * time.Second
	}
	var err error
	if p.primary, err = NewManager(cfg); err != nil {
		t.Fatal(err)
	}
	// Set before the server exists, so the stream handler sees it.
	p.primary.repl.onRound = onRound
	if setup != nil {
		setup(p.primary)
	}
	p.srv = httptest.NewServer(p.primary.Handler())
	t.Cleanup(func() {
		p.srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		p.primary.Shutdown(ctx)
	})

	p.follower, err = NewManager(Config{Build: DefaultBuilder(), Metrics: p.freg, Durability: Durability{Dir: t.TempDir()}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		(&Follower{Manager: p.follower, Primary: p.srv.URL, PromoteAfter: time.Minute}).Run(ctx)
	}()
	// Registered last, so it runs first: the stream ends before the
	// primary's server closes.
	t.Cleanup(func() {
		cancel()
		<-done
		sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer scancel()
		p.follower.Shutdown(sctx)
	})
	waitFor(t, "follower stream", func() bool { return p.preg.GaugeValue(MetricReplFollowers) == 1 })
	return p
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// followerApplied is the follower's frame count for id, -1 when it does
// not hold the session.
func followerApplied(m *Manager, id string) int {
	st, err := m.Status(id)
	if err != nil {
		return -1
	}
	return st.FramesApplied
}

func batchOf(frames []trace.Frame) []BatchFrame {
	out := make([]BatchFrame, len(frames))
	for i := range frames {
		out[i] = BatchFrame{U: mat.Vec(frames[i].U), Readings: frameReadings(&frames[i])}
	}
	return out
}

// submitAcked submits frames as one batch and fails the test unless
// every frame is acked (under AckFollower: confirmed by the follower).
func submitAcked(t *testing.T, m *Manager, id string, frames []trace.Frame) {
	t.Helper()
	for {
		p, err := m.SubmitBatch(id, batchOf(frames))
		if err != nil {
			var bp *BackpressureError
			if errors.As(err, &bp) {
				time.Sleep(time.Millisecond)
				continue
			}
			t.Errorf("session %s: submit: %v", id, err)
			return
		}
		results, err := p.Wait(context.Background())
		if err != nil {
			t.Errorf("session %s: wait: %v", id, err)
			return
		}
		for i, r := range results {
			if r.Err != nil {
				t.Errorf("session %s frame %d: %v", id, frames[i].K, r.Err)
				return
			}
		}
		return
	}
}

// TestReplShipperReadsOnlyDirtySessions pins the shipper's work set:
// with 64 idle sessions and one active, every round after the first
// reads exactly the active session, by tailing its WAL — no full read
// (the only directory listing left on the path), even across snapshot
// rotations.
func TestReplShipperReadsOnlyDirtySessions(t *testing.T) {
	frames := kheperaFrames(t, 31, 60)
	var (
		mu        sync.Mutex
		measuring bool
		rounds    [][]string
	)
	onRound := func(read []string) {
		mu.Lock()
		defer mu.Unlock()
		if measuring && len(read) > 0 {
			rounds = append(rounds, append([]string(nil), read...))
		}
	}
	var ids []string
	p := newReplPair(t, Config{Workers: 2, Durability: Durability{SnapshotEvery: 16}}, onRound, func(m *Manager) {
		for i := 0; i < 65; i++ {
			ids = append(ids, mustCreate(t, m, Spec{Robot: "khepera"}).ID)
		}
	})
	// The stream's first round ships every session cold.
	for _, id := range ids {
		waitFor(t, "initial sync of "+id, func() bool { return followerApplied(p.follower, id) == 0 })
	}
	active := ids[len(ids)/2]
	full0 := p.preg.CounterValue(MetricReplFullReads)
	if full0 < int64(len(ids)) {
		t.Fatalf("%d full reads for %d sessions new to the stream", full0, len(ids))
	}
	listGen := p.primary.store.SessionsGen()
	mu.Lock()
	measuring = true
	mu.Unlock()

	// 60 frames in batches of 4 cross three snapshot rotations.
	for i := 0; i < len(frames); i += 4 {
		submitAcked(t, p.primary, active, frames[i:i+4])
	}
	if got := followerApplied(p.follower, active); got != len(frames) {
		t.Fatalf("follower applied %d frames, want %d", got, len(frames))
	}
	mu.Lock()
	defer mu.Unlock()
	if len(rounds) == 0 {
		t.Fatal("no shipper round read the active session")
	}
	for i, read := range rounds {
		if len(read) != 1 || read[0] != active {
			t.Fatalf("round %d read %v, want only %s", i, read, active)
		}
	}
	if d := p.preg.CounterValue(MetricReplFullReads) - full0; d != 0 {
		t.Fatalf("%d full reads while tailing one session across snapshot rotations, want 0", d)
	}
	if p.primary.store.SessionsGen() != listGen {
		t.Fatal("session listing changed with no session created or removed")
	}
}

// TestReplShipsScalarAndBatchedAppends pins that both append paths
// mark their sessions for the shipper: the scalar quantum (process) and
// the coalesced one (Batching > 1). A missed mark leaves the frames
// unshipped until the ack times out, failing the frame.
func TestReplShipsScalarAndBatchedAppends(t *testing.T) {
	frames := kheperaFrames(t, 32, 36)
	for _, batching := range []int{0, 4} {
		t.Run(fmt.Sprintf("batching=%d", batching), func(t *testing.T) {
			p := newReplPair(t, Config{Workers: 2, Batching: batching, AckTimeout: 2 * time.Second,
				Durability: Durability{SnapshotEvery: 16}}, nil, nil)
			const sessions = 4
			var ids []string
			for i := 0; i < sessions; i++ {
				ids = append(ids, mustCreate(t, p.primary, Spec{Robot: "khepera"}).ID)
			}
			var wg sync.WaitGroup
			for i, id := range ids {
				wg.Add(1)
				go func(id string, chunk int) {
					defer wg.Done()
					for j := 0; j < len(frames); j += chunk {
						submitAcked(t, p.primary, id, frames[j:min(j+chunk, len(frames))])
					}
				}(id, i+2)
			}
			wg.Wait()
			for _, id := range ids {
				if got := followerApplied(p.follower, id); got != len(frames) {
					t.Errorf("session %s: follower applied %d frames, want %d", id, got, len(frames))
				}
			}
			if got := p.preg.CounterValue(MetricReplDegraded); got != 0 {
				t.Errorf("%d frames acked degraded with the follower attached", got)
			}
		})
	}
}

// TestReplMigrateAwayAndBackReshipsSnapshot pins that a session whose
// files are replaced under the same ID — migrated to another node and
// back — has its snapshot shipped again, even when the shipper never
// saw the ID leave the listing: its cursor is void, since the follower
// may have pruned the session meanwhile.
func TestReplMigrateAwayAndBackReshipsSnapshot(t *testing.T) {
	frames := kheperaFrames(t, 33, 40)
	p := newReplPair(t, Config{Workers: 2, Durability: Durability{SnapshotEvery: 16}}, nil, nil)
	other, otherSrv := newTestServer(t, Config{Durability: Durability{Dir: t.TempDir()}})
	id := mustCreate(t, p.primary, Spec{Robot: "khepera"}).ID
	submitAcked(t, p.primary, id, frames[:20])

	opened := p.freg.CounterValue(MetricSessionsOpened)
	ctx := context.Background()
	if _, err := p.primary.Migrate(ctx, id, otherSrv.URL); err != nil {
		t.Fatalf("migrate away: %v", err)
	}
	if _, err := other.Migrate(ctx, id, p.srv.URL); err != nil {
		t.Fatalf("migrate back: %v", err)
	}
	waitFor(t, "snapshot re-shipped", func() bool {
		return p.freg.CounterValue(MetricSessionsOpened) > opened && followerApplied(p.follower, id) == 20
	})
	// The stream keeps tailing the returned session.
	submitAcked(t, p.primary, id, frames[20:])
	if got := followerApplied(p.follower, id); got != len(frames) {
		t.Fatalf("follower applied %d frames, want %d", got, len(frames))
	}
}

// TestReplRecreatedIDReshipsSnapshot pins that a session deleted and
// created again under the same proposed ID replicates as the new
// session, not as frames appended to the old one, even when the shipper
// never saw the ID leave the listing.
func TestReplRecreatedIDReshipsSnapshot(t *testing.T) {
	frames := kheperaFrames(t, 34, 30)
	p := newReplPair(t, Config{Workers: 2}, nil, nil)
	spec := Spec{Robot: "khepera", ID: "r-recreated"}
	mustCreate(t, p.primary, spec)
	submitAcked(t, p.primary, spec.ID, frames[:20])
	if err := p.primary.Close(spec.ID); err != nil {
		t.Fatal(err)
	}
	mustCreate(t, p.primary, spec)
	submitAcked(t, p.primary, spec.ID, frames[:5])
	if got := followerApplied(p.follower, spec.ID); got != 5 {
		t.Fatalf("follower holds %d frames of the recreated session, want 5", got)
	}
}
