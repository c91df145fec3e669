package serve

import (
	"testing"
	"time"
)

// TestSetRunningRespectsTerminal pins the dequeue-to-start race fix: a
// job canceled after the dispatcher popped it but before setRunning must
// refuse to start, and a late finish must not close the finished channel
// a second time (which panicked the whole server before the fix).
func TestSetRunningRespectsTerminal(t *testing.T) {
	j := newJob("j-x", "t", Resolved{}, "h", 1)
	j.requestCancel()
	if !j.finishIfUnstarted() {
		t.Fatalf("queued job did not finish as canceled")
	}
	if j.setRunning(1) {
		t.Fatalf("setRunning resurrected a canceled job")
	}
	if st := j.Status(); st.State != StateCanceled || st.Workers != 0 {
		t.Fatalf("job after refused start = %+v, want canceled with no workers", st)
	}
	// The sweep returning late must be a no-op on the terminal state.
	j.finish(StateDone, nil, nil, "")
	if st := j.Status(); st.State != StateCanceled {
		t.Fatalf("late finish overwrote the terminal state: %+v", st)
	}
	if j.finishIfUnstarted() {
		t.Fatalf("finishIfUnstarted re-finished a terminal job")
	}
}

// TestCancelRacingDispatch hammers the submit-then-cancel window the
// dispatcher races through: every job must end in exactly one terminal
// state (no double close of finished), and every granted lease must come
// back whichever side wins each race. Run under -race this covers the
// pop-to-setRunning interleaving a holdable dispatcher cannot stage.
func TestCancelRacingDispatch(t *testing.T) {
	s := New(Config{Budget: 1, QueueDepth: 64})
	defer s.Close()
	for i := 0; i < 30; i++ {
		j, err := s.Submit("racer", tinySpec(5000+uint64(i)))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		s.Cancel(j.ID)
		st := waitFinished(t, j)
		if st.State != StateCanceled && st.State != StateDone {
			t.Fatalf("job %s ended %s (%s)", j.ID, st.State, st.Error)
		}
	}
	// The refused-start path releases its lease after the job is already
	// terminal, so poll briefly rather than reading Leased once.
	for end := time.Now().Add(10 * time.Second); s.Snapshot().LeasedWorkers != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("%d workers still leased after every job finished", s.Snapshot().LeasedWorkers)
		}
	}
	if hw := s.Snapshot().LeaseHighWater; hw > s.Budget() {
		t.Errorf("lease high-water %d exceeded the budget %d", hw, s.Budget())
	}
}

// TestTerminalJobRetention pins the bounded job table: past RetainJobs,
// the oldest terminal job ages out of the map (its ID 404s) while newer
// ones stay fetchable, and the accepted counter stays monotone.
func TestTerminalJobRetention(t *testing.T) {
	s := New(Config{Budget: 1, RetainJobs: 2})
	defer s.Close()
	var ids []string
	for i := 0; i < 3; i++ {
		j, err := s.Submit("tenant", tinySpec(6000+uint64(i)))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if st := waitFinished(t, j); st.State != StateDone {
			t.Fatalf("job %s ended %s (%s)", j.ID, st.State, st.Error)
		}
		ids = append(ids, j.ID)
	}
	// Retirement happens just after the finish waitFinished observes.
	evicted := func(id string) bool { _, ok := s.Job(id); return !ok }
	for end := time.Now().Add(10 * time.Second); !evicted(ids[0]); time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("oldest terminal job %s never aged out past RetainJobs", ids[0])
		}
	}
	for _, id := range ids[1:] {
		if evicted(id) {
			t.Errorf("job %s evicted while within the retention bound", id)
		}
	}
	if got := s.Snapshot().AcceptedStudies; got != 3 {
		t.Errorf("accepted studies = %d, want the monotone count 3 despite eviction", got)
	}
}
