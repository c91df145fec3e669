package serve

import (
	"bytes"
	"log"
	"os"
	"strings"
	"testing"
	"time"

	"philly/internal/par"
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
	j.finish(StateDone, nil, "")
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

// TestPanickingStudyFailsOnlyItsJob: a study that panics inside a pool
// shard fails its own job with the panic's value, gives its lease back and
// logs the shard's stack under the job's ID; the server keeps serving.
func TestPanickingStudyFailsOnlyItsJob(t *testing.T) {
	const panicSeed = 4242
	runStudy = func(r Resolved, workers int, cancel <-chan struct{}, progress func(done, total int)) ([]byte, error) {
		if r.Seed == panicSeed {
			pool := par.NewPool(2)
			defer pool.Close()
			pool.ForkJoin(2, func(shard int) {
				if shard == 1 {
					panic("shard boom")
				}
			})
		}
		return runResolved(r, workers, cancel, progress)
	}
	var logged bytes.Buffer
	log.SetOutput(&logged)
	t.Cleanup(func() {
		runStudy = runResolved
		log.SetOutput(os.Stderr)
	})

	s := New(Config{Budget: 2})
	defer s.Close()
	bad, err := s.Submit("tenant", tinySpec(panicSeed))
	if err != nil {
		t.Fatal(err)
	}
	st := waitFinished(t, bad)
	if st.State != StateFailed || st.Error != "study panicked: shard boom" {
		t.Fatalf("panicking job ended %s with %q, want failed with %q",
			st.State, st.Error, "study panicked: shard boom")
	}
	// The shard's own frame (the closure passed to ForkJoin) is only in
	// the stack ForkJoin captured, not in one taken after the re-panic.
	if out := logged.String(); !strings.Contains(out, "job "+bad.ID+": study panicked: shard boom") ||
		!strings.Contains(out, "TestPanickingStudyFailsOnlyItsJob.func1.1(") {
		t.Errorf("log lacks the job ID, the panic or the shard's stack:\n%s", out)
	}
	for end := time.Now().Add(10 * time.Second); s.Snapshot().LeasedWorkers != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("%d workers still leased after the panicking job failed", s.Snapshot().LeasedWorkers)
		}
	}
	good, err := s.Submit("tenant", tinySpec(panicSeed+1))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitFinished(t, good); st.State != StateDone {
		t.Fatalf("job after the panic ended %s (%s), want done", st.State, st.Error)
	}
}
