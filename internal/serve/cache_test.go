package serve

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// tinySpec is the cheap study the serve tests submit: a small-scale
// config with a trimmed job count runs in tens of milliseconds.
func tinySpec(seed uint64) Spec {
	return Spec{Scale: "small", Jobs: 80, Seed: seed}
}

// waitFinished blocks until the job reaches a terminal state.
func waitFinished(t *testing.T, j *Job) JobStatus {
	t.Helper()
	select {
	case <-j.Finished():
	case <-time.After(120 * time.Second):
		t.Fatalf("job %s never reached a terminal state (stuck at %s)", j.ID, j.Status().State)
	}
	return j.Status()
}

// TestCacheSecondSubmitHitsAndMatchesFreshRun is the exactness proof in
// test form: the second submit of an equal spec must be a cache hit whose
// export is byte-identical to the original response and to a fresh run of
// the same resolved spec outside the server. The export is the
// sweep.Result's own encoding, so equal bytes mean an equal result.
func TestCacheSecondSubmitHitsAndMatchesFreshRun(t *testing.T) {
	s := New(Config{Budget: 2})
	defer s.Close()
	spec := tinySpec(7)

	j1, err := s.Submit("alice", spec)
	if err != nil {
		t.Fatalf("first submit: %v", err)
	}
	if st := waitFinished(t, j1); st.State != StateDone {
		t.Fatalf("first submit ended %s (%s), want done", st.State, st.Error)
	}
	if j1.CacheHit() {
		t.Fatalf("first submit reported a cache hit on an empty cache")
	}

	j2, err := s.Submit("bob", spec)
	if err != nil {
		t.Fatalf("second submit: %v", err)
	}
	select {
	case <-j2.Finished():
	case <-time.After(time.Second):
		t.Fatalf("cache hit did not finish immediately")
	}
	if !j2.CacheHit() {
		t.Fatalf("second submit of an equal spec missed the cache")
	}
	exp1, exp2 := j1.Export(), j2.Export()
	if !bytes.Equal(exp1, exp2) {
		t.Fatalf("cached export differs from the original response bytes")
	}

	// The independent referee: a fresh run outside the server entirely.
	r, err := spec.Resolve()
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	freshExport, err := runResolved(r, 1, nil, nil)
	if err != nil {
		t.Fatalf("fresh run: %v", err)
	}
	if !bytes.Equal(freshExport, exp2) {
		t.Fatalf("cached export differs from a fresh run's export bytes")
	}

	_, hits, misses := s.cache.stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("cache stats = %d hits / %d misses, want 1/1", hits, misses)
	}
}

// TestCanonicalHashNormalization pins the hash's equivalence class: JSON
// field order and whitespace are invisible, one changed axis value is not.
func TestCanonicalHashNormalization(t *testing.T) {
	ordered := `{"seed":7,"jobs":80,"scale":"small","axes":["sched.policy=philly,fifo"],"replicas":2}`
	shuffled := `{
		"replicas": 2,
		"axes":     [ "sched.policy=philly,fifo" ],
		"scale":    "small",

		"jobs": 80,   "seed": 7
	}`
	oneAxisValueOff := `{"seed":7,"jobs":80,"scale":"small","axes":["sched.policy=philly"],"replicas":2}`

	hash := func(raw string) string {
		t.Helper()
		var sp Spec
		if err := json.Unmarshal([]byte(raw), &sp); err != nil {
			t.Fatalf("unmarshal %q: %v", raw, err)
		}
		r, err := sp.Resolve()
		if err != nil {
			t.Fatalf("resolve %q: %v", raw, err)
		}
		return CanonicalHash(r)
	}

	if a, b := hash(ordered), hash(shuffled); a != b {
		t.Errorf("field order / whitespace changed the hash: %s vs %s", a, b)
	}
	if a, b := hash(ordered), hash(oneAxisValueOff); a == b {
		t.Errorf("dropping an axis value kept the hash %s", a)
	}
	// Defaults resolve canonically: the explicit spelling of the defaults
	// hashes like the empty spec.
	if a, b := hash(`{}`), hash(`{"scale":"small","seed":1,"replicas":1}`); a != b {
		t.Errorf("explicit defaults hash %s, empty spec %s", b, a)
	}
}

// TestResultCacheLRU pins the eviction and disable semantics white-box.
func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(2)
	for _, h := range []string{"a", "b", "c"} { // c evicts a
		c.put(&cacheEntry{hash: h})
	}
	if _, ok := c.get("a"); ok {
		t.Errorf("oldest entry survived past capacity")
	}
	if _, ok := c.get("b"); !ok {
		t.Errorf("entry b evicted early")
	}
	c.put(&cacheEntry{hash: "d"}) // lru is now c (b was just touched)
	if _, ok := c.get("c"); ok {
		t.Errorf("least recently used entry c survived eviction")
	}
	if _, ok := c.get("b"); !ok {
		t.Errorf("recently used entry b evicted")
	}

	off := newResultCache(-1)
	off.put(&cacheEntry{hash: "x"})
	if _, ok := off.get("x"); ok {
		t.Errorf("disabled cache stored an entry")
	}
	if n, _, _ := off.stats(); n != 0 {
		t.Errorf("disabled cache reports %d entries", n)
	}
}
