package fleet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"time"

	"roboads/internal/api"
	"roboads/internal/store"
	"roboads/internal/telemetry"
)

// Primary-side WAL replication: a follower node opens one long-lived
// POST /v1/internal/replicate stream, announcing its per-session durable
// cursors in a hello line; the primary ships snapshot and frame records
// as sessions appear and WALs grow, and reads ack lines (the follower's
// own group-commit fsync confirmations) back off the request body. With
// Config.AckPolicy == AckFollower, a frame's reply additionally waits
// for that ack, so a SIGKILL of the primary loses zero acked frames.

// Replication metric names.
const (
	// MetricReplFollowers gauges connected replication followers (0 or 1;
	// a newer connection supersedes an older one).
	MetricReplFollowers = "roboads_fleet_repl_followers"
	// MetricReplShipped counts frame records shipped to followers.
	MetricReplShipped = "roboads_fleet_repl_shipped_total"
	// MetricReplDegraded counts AckFollower frames acked on local
	// durability alone because no follower was connected.
	MetricReplDegraded = "roboads_fleet_repl_degraded_total"
	// MetricReplAckWait is the AckFollower wait latency histogram.
	MetricReplAckWait = "roboads_fleet_repl_ack_wait_seconds"
	// MetricReplFullReads counts replication reads that decoded a
	// session's newest snapshot and whole WAL instead of tailing it:
	// one cold start per session new to a stream, plus every fallback
	// from a tail that could not be followed. Flat in steady state.
	MetricReplFullReads = "roboads_fleet_repl_full_reads_total"
)

// replWaiter is one frame batch blocked on a follower ack.
type replWaiter struct {
	session string
	seq     int
	ch      chan struct{}
}

// replHub coordinates the primary side of replication: WAL appends mark
// their session dirty and wake the shipper stream, and AckFollower
// commits wait on acked high-water marks per session.
type replHub struct {
	notify chan struct{} // cap 1: coalesced wakeups for the shipper

	mu        sync.Mutex
	gen       int            // bumped per follower connection; stale streams exit
	connected bool           // a follower stream is currently attached
	acked     map[string]int // per-session highest follower-acked frame seq
	waiters   []replWaiter
	// dirty is the live stream's work set for its next round: sessions
	// appended to since its last take, true for a session whose files
	// were replaced (import), which voids the stream's cursor for it.
	dirty map[string]bool

	// onRound, when set (tests), receives the sessions each shipper
	// round read.
	onRound func(read []string)

	mFollowers *telemetry.Gauge
	mShipped   *telemetry.Counter
	mDegraded  *telemetry.Counter
	mAckWait   *telemetry.Histogram
	mFullReads *telemetry.Counter
}

func newReplHub(reg *telemetry.Registry) *replHub {
	return &replHub{
		notify:     make(chan struct{}, 1),
		acked:      make(map[string]int),
		dirty:      make(map[string]bool),
		mFollowers: reg.Gauge(MetricReplFollowers, "Connected replication followers."),
		mShipped:   reg.Counter(MetricReplShipped, "Frame records shipped to followers."),
		mDegraded:  reg.Counter(MetricReplDegraded, "AckFollower frames acked without a follower connected."),
		mAckWait:   reg.Histogram(MetricReplAckWait, "AckFollower wait latency in seconds.", telemetry.LatencyBuckets()),
		mFullReads: reg.Counter(MetricReplFullReads, "Replication reads of a whole snapshot and WAL instead of the WAL tail."),
	}
}

// wake nudges the shipper stream; safe from the frame hot path (one
// non-blocking channel send, coalesced).
func (h *replHub) wake() {
	select {
	case h.notify <- struct{}{}:
	default:
	}
}

// mark adds a session to the live stream's work set and wakes the
// stream; replaced voids the stream's cursor for it, and the follower's
// ack mark, which counted frames of the session's previous files.
// Without a stream the mark is dropped: a new stream's first round
// visits every session.
func (h *replHub) mark(id string, replaced bool) {
	h.mu.Lock()
	if h.connected {
		h.dirty[id] = h.dirty[id] || replaced
	}
	if replaced {
		delete(h.acked, id)
	}
	h.mu.Unlock()
	h.wake()
}

// take hands stream gen the work set accumulated since its last take,
// installing empty (cleared by the caller) in its place. ok is false
// once gen is superseded; the stream must exit.
func (h *replHub) take(gen int, empty map[string]bool) (dirty map[string]bool, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if gen != h.gen {
		return empty, false
	}
	dirty, h.dirty = h.dirty, empty
	return dirty, true
}

// connect registers a new follower stream, superseding any previous one,
// and returns the stream's generation token. The ack marks reset: the
// new follower confirms durability from its own cursors forward. So
// does the work set: the new stream's first round visits every session.
func (h *replHub) connect() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.gen++
	h.connected = true
	h.acked = make(map[string]int)
	clear(h.dirty)
	h.mFollowers.Set(1)
	return h.gen
}

// disconnect retires a follower stream. Stale generations (already
// superseded) are ignored. Waiters are woken so AckFollower commits
// re-check and degrade instead of sitting out their full timeout.
func (h *replHub) disconnect(gen int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if gen != h.gen {
		return
	}
	h.connected = false
	h.mFollowers.Set(0)
	for _, w := range h.waiters {
		close(w.ch)
	}
	h.waiters = nil
}

// ack records the follower's durable high-water mark for one session and
// releases every waiter it covers.
func (h *replHub) ack(session string, seq int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if seq <= h.acked[session] {
		return
	}
	h.acked[session] = seq
	kept := h.waiters[:0]
	for _, w := range h.waiters {
		if w.session == session && w.seq <= seq {
			close(w.ch)
		} else {
			kept = append(kept, w)
		}
	}
	h.waiters = kept
}

// waitAcked blocks until the follower acks session up to seq, the
// follower disconnects (degraded: local durability stands alone, nil),
// or timeout expires (error: the frame must NOT be acked). Called with
// the session's stepMu held — replication progress never needs it.
func (h *replHub) waitAcked(session string, seq int, timeout time.Duration) error {
	h.mu.Lock()
	if !h.connected {
		h.mu.Unlock()
		h.mDegraded.Inc()
		return nil
	}
	if h.acked[session] >= seq {
		h.mu.Unlock()
		return nil
	}
	w := replWaiter{session: session, seq: seq, ch: make(chan struct{})}
	h.waiters = append(h.waiters, w)
	h.mu.Unlock()

	// The append's replNotify already put the session in the stream's
	// work set and woke it.
	start := time.Now()
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-w.ch:
		h.mAckWait.Observe(time.Since(start).Seconds())
		h.mu.Lock()
		connected := h.connected
		acked := h.acked[session] >= seq
		h.mu.Unlock()
		if !acked && !connected {
			h.mDegraded.Inc()
		}
		return nil
	case <-t.C:
		h.mu.Lock()
		kept := h.waiters[:0]
		for _, o := range h.waiters {
			if o.ch != w.ch {
				kept = append(kept, o)
			}
		}
		h.waiters = kept
		h.mu.Unlock()
		return fmt.Errorf("fleet: follower ack timeout after %v (session %s, frame %d)", timeout, session, seq)
	}
}

// replNotify marks session id for the replication shipper after WAL
// appends and wakes it. Called on the frame path before the local
// commit barrier so the follower's fsync overlaps the primary's.
func (m *Manager) replNotify(id string) {
	if m.repl != nil {
		m.repl.mark(id, false)
	}
}

// waitFollowerAck enforces Config.AckPolicy after a successful local
// commit: under AckFollower it blocks until the connected follower
// confirms its own fsync of every frame this session has appended. The
// caller holds s.stepMu; a non-nil error means the frames must be
// answered as failed (not acked).
func (m *Manager) waitFollowerAck(s *session) error {
	if m.cfg.AckPolicy != AckFollower || m.repl == nil || s.ds == nil {
		return nil
	}
	return m.repl.waitAcked(s.info.ID, s.ds.Applied(), m.cfg.AckTimeout)
}

// handleReplicate serves POST /v1/internal/replicate: the follower's
// hello line opens the stream, ack lines follow on the same request
// body, and the response streams NDJSON ReplRecords until the follower
// drops, a newer follower supersedes this one, or the server stops.
func (m *Manager) handleReplicate(w http.ResponseWriter, r *http.Request) {
	if m.store == nil {
		httpError(w, http.StatusNotImplemented, ErrDurabilityDisabled)
		return
	}
	body := bufio.NewReader(r.Body)
	helloLine, err := body.ReadBytes('\n')
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("fleet: replicate hello: %w", err))
		return
	}
	var hello api.ReplHello
	if err := json.Unmarshal(helloLine, &hello); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("fleet: replicate hello: %w", err))
		return
	}
	flusher, _ := w.(http.Flusher)
	// Ack lines arrive on the request body for as long as records flow
	// out; without full duplex the HTTP/1 server stops body reads at the
	// first response write and every ack would be lost.
	http.NewResponseController(w).EnableFullDuplex()
	w.Header().Set("Content-Type", api.ContentTypeNDJSON)
	w.WriteHeader(http.StatusOK)

	gen := m.repl.connect()
	defer m.repl.disconnect(gen)

	// Ack lines ride the request body for the stream's lifetime.
	go func() {
		sc := bufio.NewScanner(body)
		sc.Buffer(make([]byte, 0, 4096), 1<<20)
		for sc.Scan() {
			var ack api.ReplAck
			if json.Unmarshal(sc.Bytes(), &ack) == nil && ack.Session != "" {
				m.repl.ack(ack.Session, ack.Seq)
			}
		}
	}()

	enc := json.NewEncoder(w)
	// cursors tracks what this stream has shipped per session (absolute
	// frame seq; missing = nothing). Seeded from the follower's hello so
	// an already-synced follower gets the tail only. tails holds the
	// stream's WAL position in every session it has visited.
	cursors := make(map[string]int, len(hello.Cursors))
	for id, seq := range hello.Cursors {
		cursors[id] = seq
	}
	tails := make(map[string]*store.ReplicaTail)
	// visit is the round's work set: sessions appended to since the last
	// round, new to the stream, replaced (true), or whose last read
	// failed. A round costs the frames appended to them, not the store.
	visit := make(map[string]bool)
	spare := make(map[string]bool)
	var shipped []string // the last sessions record sent
	var listGen uint64
	listed := false
	var read []string
	idle := time.NewTicker(250 * time.Millisecond)
	defer idle.Stop()
	lastSend := time.Now()
	for {
		if m.state.Load() != stateRunning {
			return
		}
		dirty, ok := m.repl.take(gen, spare)
		if !ok {
			return
		}
		for id, replaced := range dirty {
			visit[id] = visit[id] || replaced
		}
		clear(dirty)
		spare = dirty
		sent := false
		// Read the generation before the listing: a change racing the
		// read bumps it again, so the next round re-lists.
		if g := m.store.SessionsGen(); !listed || g != listGen {
			listGen, listed = g, true
			ids := m.store.Sessions()
			present := make(map[string]bool, len(ids))
			for _, id := range ids {
				present[id] = true
				if _, seen := tails[id]; !seen && !visit[id] {
					visit[id] = false
				}
			}
			for id := range tails {
				if !present[id] {
					delete(tails, id)
					delete(cursors, id)
					delete(visit, id)
				}
			}
			// A changed session listing is shipped first so the follower
			// can prune sessions deleted or migrated away on the primary.
			if !slices.Equal(ids, shipped) {
				if enc.Encode(api.ReplRecord{Type: "sessions", Sessions: ids}) != nil {
					return
				}
				shipped = ids
				sent = true
			}
		}
		read = read[:0]
		for id, replaced := range visit {
			t := tails[id]
			if t == nil || replaced {
				// New to the stream, or its files were replaced: read it
				// cold (from nothing, when replaced).
				t = new(store.ReplicaTail)
				tails[id] = t
			}
			if replaced {
				delete(cursors, id)
				visit[id] = false
			}
			cur, known := cursors[id]
			if !known {
				cur = -1
			}
			batch, err := m.store.ReplicaRead(id, cur, t)
			if err != nil {
				// Mid-create, mid-remove, or torn view: keep it in the
				// work set, the next round sees a settled directory.
				continue
			}
			delete(visit, id)
			if m.repl.onRound != nil {
				read = append(read, id)
			}
			if batch.Full {
				m.repl.mFullReads.Inc()
			}
			if batch.Snapshot != nil {
				if enc.Encode(api.ReplRecord{Type: "snapshot", Session: id, Seq: batch.Base, Snapshot: batch.Snapshot}) != nil {
					return
				}
				cursors[id] = batch.Base
				sent = true
			}
			for i, fr := range batch.Frames {
				if enc.Encode(api.ReplRecord{Type: "frame", Session: id, Seq: batch.FirstSeq + i, Frame: fr}) != nil {
					return
				}
				cursors[id] = batch.FirstSeq + i
				m.repl.mShipped.Inc()
				sent = true
			}
		}
		if m.repl.onRound != nil {
			m.repl.onRound(read)
		}
		if sent {
			lastSend = time.Now()
		} else if time.Since(lastSend) >= 250*time.Millisecond {
			// Heartbeat: the follower's promotion timer keys off stream
			// records, so an idle primary must still say it is alive.
			if enc.Encode(api.ReplRecord{Type: "ping"}) != nil {
				return
			}
			lastSend = time.Now()
		}
		if flusher != nil {
			flusher.Flush()
		}
		select {
		case <-m.repl.notify:
		case <-idle.C:
		case <-r.Context().Done():
			return
		}
	}
}
