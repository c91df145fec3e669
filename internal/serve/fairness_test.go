package serve

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
)

// submitN queues n distinct specs for a tenant (distinct seeds, so none
// can hit the cache) and returns the jobs.
func submitN(t *testing.T, s *Server, tenant string, n int, seedBase uint64) []*Job {
	t.Helper()
	jobs := make([]*Job, n)
	for i := range jobs {
		j, err := s.Submit(tenant, tinySpec(seedBase+uint64(i)))
		if err != nil {
			t.Fatalf("submit %s #%d: %v", tenant, i, err)
		}
		jobs[i] = j
	}
	return jobs
}

// TestDeterministicDrainOrder stages every queue before the first grant
// (dispatcher held), then checks the grant log is exactly the weighted
// round-robin interleave — a flooding tenant cannot starve a light one,
// and the order is a pure function of the staged schedule.
func TestDeterministicDrainOrder(t *testing.T) {
	cases := []struct {
		name    string
		weights map[string]int
		// interleave maps grant position to (tenant, index-within-tenant).
		want func(flood, light []*Job) []string
	}{
		{
			name: "equal weights alternate",
			want: func(f, l []*Job) []string {
				return []string{f[0].ID, l[0].ID, f[1].ID, l[1].ID, f[2].ID, f[3].ID, f[4].ID}
			},
		},
		{
			name:    "light at weight 2 drains two per flood grant",
			weights: map[string]int{"light": 2},
			want: func(f, l []*Job) []string {
				return []string{f[0].ID, l[0].ID, l[1].ID, f[1].ID, f[2].ID, f[3].ID, f[4].ID}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hold := make(chan struct{})
			s := newServer(Config{Budget: 1, QueueDepth: 10, Weights: tc.weights}, hold)
			defer s.Close()

			flood := submitN(t, s, "flood", 5, 100)
			light := submitN(t, s, "light", 2, 200)
			close(hold)

			for _, j := range append(append([]*Job{}, flood...), light...) {
				if st := waitFinished(t, j); st.State != StateDone {
					t.Fatalf("job %s ended %s (%s)", j.ID, st.State, st.Error)
				}
			}
			want := tc.want(flood, light)
			if got := s.GrantOrder(); !reflect.DeepEqual(got, want) {
				t.Errorf("grant order %v, want %v", got, want)
			}
		})
	}
}

// TestFloodRejectedLightAdmitted pins per-tenant admission: a tenant
// flooding past its queue depth gets 429-style rejects with a Retry-After
// hint while another tenant's submissions still complete.
func TestFloodRejectedLightAdmitted(t *testing.T) {
	hold := make(chan struct{})
	s := newServer(Config{Budget: 1, QueueDepth: 2}, hold)
	defer s.Close()

	flood := submitN(t, s, "flood", 2, 300)
	_, err := s.Submit("flood", tinySpec(310))
	var over ErrOverloaded
	if !errors.As(err, &over) {
		t.Fatalf("flooding past queue depth returned %v, want ErrOverloaded", err)
	}
	if over.Tenant != "flood" || over.QueueDepth != 2 || over.RetryAfter < 1 {
		t.Errorf("reject detail %+v, want tenant flood, depth 2, retry >= 1s", over)
	}

	light, err := s.Submit("light", tinySpec(320))
	if err != nil {
		t.Fatalf("light tenant rejected while only flood's queue is full: %v", err)
	}
	close(hold)

	if st := waitFinished(t, light); st.State != StateDone {
		t.Fatalf("light job ended %s (%s)", st.State, st.Error)
	}
	for _, j := range flood {
		if st := waitFinished(t, j); st.State != StateDone {
			t.Fatalf("flood job %s ended %s (%s)", j.ID, st.State, st.Error)
		}
	}

	snap := s.Snapshot()
	if got := snap.Tenants["flood"].Rejected; got != 1 {
		t.Errorf("flood rejected counter = %d, want 1", got)
	}
	if got := snap.Tenants["light"].Rejected; got != 0 {
		t.Errorf("light rejected counter = %d, want 0", got)
	}
}

// TestLeasesNeverExceedBudget drives concurrent studies with mixed worker
// requests through a 2-worker budget and reads the white-box lease
// counter: the high-water mark can never exceed the budget, and every
// lease is returned.
func TestLeasesNeverExceedBudget(t *testing.T) {
	s := New(Config{Budget: 2, QueueDepth: 64})
	defer s.Close()

	var jobs []*Job
	for i := 0; i < 8; i++ {
		spec := tinySpec(400 + uint64(i))
		spec.Workers = i%3 + 1 // 1, 2, and over-budget 3 (clamped to 2)
		tenant := "even"
		if i%2 == 1 {
			tenant = "odd"
		}
		j, err := s.Submit(tenant, spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		if st := waitFinished(t, j); st.State != StateDone {
			t.Fatalf("job %s ended %s (%s)", j.ID, st.State, st.Error)
		}
		if st := j.Status(); st.Workers < 1 || st.Workers > s.Budget() {
			t.Errorf("job %s granted %d workers outside [1, %d]", j.ID, st.Workers, s.Budget())
		}
	}
	snap := s.Snapshot()
	if hw := snap.LeaseHighWater; hw > s.Budget() {
		t.Errorf("lease high-water %d exceeded the budget %d", hw, s.Budget())
	}
	if leased := snap.LeasedWorkers; leased != 0 {
		t.Errorf("%d workers still leased after all jobs finished", leased)
	}
}

// TestBudgetDefaultsToGOMAXPROCS: a non-positive Budget means one worker
// per GOMAXPROCS slot.
func TestBudgetDefaultsToGOMAXPROCS(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	if got, want := s.Budget(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Budget() = %d, want GOMAXPROCS %d", got, want)
	}
}

// TestLeaseOverReleasePanics pins the over-release guard: returning more
// workers than a tenant holds is a caller bug, and clamping it would let a
// double release inflate the budget.
func TestLeaseOverReleasePanics(t *testing.T) {
	ten := &tenantState{name: "t", runningWorkers: 1, runningJobs: 1}
	defer func() {
		if recover() == nil {
			t.Fatal("releasing 2 workers with 1 leased did not panic")
		}
	}()
	ten.releaseLocked(2)
}
