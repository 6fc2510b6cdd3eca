package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"roboads/internal/trace"
)

// sameBatch reports how a tail read differs from the full read from the
// same cursor, or nil when they ship the same thing.
func sameBatch(full, tail *ReplicaBatch) error {
	if (full.Snapshot == nil) != (tail.Snapshot == nil) {
		return fmt.Errorf("full read ships a snapshot: %v, tail read: %v", full.Snapshot != nil, tail.Snapshot != nil)
	}
	if full.Snapshot != nil && (full.Base != tail.Base || !bytes.Equal(full.Snapshot, tail.Snapshot)) {
		return fmt.Errorf("snapshots differ: base %d vs %d", full.Base, tail.Base)
	}
	if full.FirstSeq != tail.FirstSeq {
		return fmt.Errorf("FirstSeq %d vs %d", full.FirstSeq, tail.FirstSeq)
	}
	if len(full.Frames) != len(tail.Frames) {
		return fmt.Errorf("%d frames vs %d", len(full.Frames), len(tail.Frames))
	}
	for i := range full.Frames {
		a, _ := json.Marshal(full.Frames[i])
		b, _ := json.Marshal(tail.Frames[i])
		if !bytes.Equal(a, b) {
			return fmt.Errorf("frame %d: %s vs %s", full.FirstSeq+i, a, b)
		}
	}
	return nil
}

// tailReader is one replication reader: its cursor and WAL tail.
type tailReader struct {
	cursor int
	tail   ReplicaTail
}

// TestReplicaTailMatchesFullRead is the tail-read property test: a
// session's files go through seeded random appends, commits, snapshot
// rotations (compacting the old generation), repeated snapshots at the
// same frame count (truncating the fresh segment), torn final records,
// restarts through Recover, and Materialize over the same ID with a
// diverging history. After every step, readers at various cursors —
// one keeping up, others lagging or jumping — read with their tails,
// and each tail read must equal a full ReplicaRead from the same
// cursor: the same frames, the same FirstSeq, and a snapshot exactly
// when the full read ships one. The reader that keeps up must never
// need a full read except across a Materialize.
func TestReplicaTailMatchesFullRead(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) { replicaTailProperty(t, seed) })
	}
}

func replicaTailProperty(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	st, err := Open(t.TempDir(), Options{FsyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	const id = "sess-1"
	ss, err := st.Create(id)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ss.WriteSnapshot(testSnapshot(0)); err != nil {
		t.Fatal(err)
	}
	defer func() { ss.Close() }()

	// epoch salts frame contents and sizes: a Materialize from an older
	// state starts a history that differs from what readers saw at the
	// same sequence numbers, with records at other byte offsets.
	epoch := 0
	frame := func(seq int) *trace.Frame {
		f := testFrame(seq)
		f.K = seq + 1000*epoch
		f.Readings["odo"] = make([]float64, epoch%3)
		return f
	}
	walPath := func() string { return filepath.Join(st.dir, id, walName(ss.base)) }
	appendFrames := func(n int) {
		for i := 0; i < n; i++ {
			if err := ss.Append(frame(ss.Applied() + 1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	reopen := func() {
		ss.Close()
		var err error
		if ss, _, _, err = st.Recover(id); err != nil {
			t.Fatal(err)
		}
	}
	tearNext := func() (size int64) {
		fi, err := os.Stat(walPath())
		if err != nil {
			t.Fatal(err)
		}
		rec, err := AppendWALRecordBinary(nil, ss.Applied()+1, frame(ss.Applied()+1))
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(walPath(), os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.Write(rec[:1+rng.Intn(len(rec)-1)]); err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}

	readers := make([]*tailReader, 4)
	for i := range readers {
		readers[i] = &tailReader{cursor: -1}
	}
	lagFull, tailReads := 0, 0
	check := func(step int, what string, materialized bool) {
		t.Helper()
		for i, r := range readers {
			if i > 0 {
				if rng.Intn(2) == 0 {
					continue // lagging: rotations may pass it by
				}
				if rng.Intn(10) == 0 {
					r.cursor = rng.Intn(ss.Applied()+4) - 1 // jumps
				}
			}
			full, err := st.ReplicaRead(id, r.cursor, nil)
			if err != nil {
				t.Fatalf("step %d (%s): full read: %v", step, what, err)
			}
			positioned := r.tail.inc != 0
			got, err := st.ReplicaRead(id, r.cursor, &r.tail)
			if err != nil {
				t.Fatalf("step %d (%s): tail read: %v", step, what, err)
			}
			if err := sameBatch(full, got); err != nil {
				t.Fatalf("step %d (%s), reader %d at cursor %d: %v", step, what, i, r.cursor, err)
			}
			switch {
			case !got.Full:
				tailReads++
			case i == 0 && positioned && !materialized:
				t.Fatalf("step %d (%s): the reader keeping up fell back to a full read", step, what)
			case i > 0:
				lagFull++
			}
			r.cursor = got.FirstSeq - 1 + len(got.Frames)
		}
	}

	for step := 0; step < 300; step++ {
		switch op := rng.Intn(12); {
		case op < 5:
			appendFrames(1 + rng.Intn(6))
			check(step, "append", false)
		case op == 5:
			n := 1 + rng.Intn(3)
			appendFrames(n)
			if err := ss.Commit(n); err != nil {
				t.Fatal(err)
			}
			if err := ss.Sync(); err != nil {
				t.Fatal(err)
			}
			check(step, "commit", false)
		case op == 6 || op == 7:
			if _, err := ss.WriteSnapshot(testSnapshot(0)); err != nil {
				t.Fatal(err)
			}
			check(step, "rotate", false)
		case op == 8:
			// Two snapshots at the same count: the second truncates the
			// segment the first one started.
			for i := 0; i < 2; i++ {
				if _, err := ss.WriteSnapshot(testSnapshot(0)); err != nil {
					t.Fatal(err)
				}
			}
			check(step, "rotate twice", false)
		case op == 9:
			// A record torn mid-write, seen by readers, then completed by
			// the writer's real append.
			size := tearNext()
			check(step, "torn", false)
			if err := os.Truncate(walPath(), size); err != nil {
				t.Fatal(err)
			}
			appendFrames(1)
			check(step, "torn completed", false)
		case op == 10:
			// A restart: a torn tail left behind is truncated away.
			if rng.Intn(2) == 0 {
				tearNext()
			}
			reopen()
			check(step, "recover", false)
		default:
			// Replace the session's files with an older state of itself,
			// then diverge from there.
			ss.Close()
			b, err := st.ReplicaRead(id, -1, nil)
			if err != nil {
				t.Fatal(err)
			}
			keep := rng.Intn(len(b.Frames) + 1)
			if err := st.Materialize(id, b.Snapshot, b.Frames[:keep]); err != nil {
				t.Fatal(err)
			}
			reopen()
			if ss.Applied() != b.Base+keep {
				t.Fatalf("materialized %d frames past %d, recovered %d", keep, b.Base, ss.Applied())
			}
			epoch++
			// Diverge past where the readers were, at times.
			appendFrames(rng.Intn(3) * 8)
			check(step, "materialize", true)
		}
	}
	if tailReads == 0 || lagFull == 0 {
		t.Fatalf("the steps never exercised both paths: %d tail reads, %d lagging full reads", tailReads, lagFull)
	}
}
