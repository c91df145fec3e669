package sweep

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"philly/internal/analysis"
	"philly/internal/core"
	"philly/internal/federation"
)

// fleetMatrix is a fast federated sweep: a policy axis crossed with a
// fleet axis, with the jobs axis shrinking every member's trace so one
// cell runs in tens of milliseconds.
func fleetMatrix(t *testing.T) Matrix {
	t.Helper()
	return Matrix{
		Base: tinyConfig(),
		Axes: []Axis{
			mustParse(t, "sched.policy=philly,fifo"),
			mustParse(t, "jobs=200"),
			mustParse(t, "fleet.members=philly-small+helios-like"),
		},
	}
}

// TestFederatedSweep runs a policy × fleet matrix end to end and checks
// the member-row expansion: one row per member plus a fleet-wide row per
// scenario, a trailing synthetic "member" axis, per-member configs carried
// on the rows, and exact cross-row accounting for completed jobs.
func TestFederatedSweep(t *testing.T) {
	m := fleetMatrix(t)
	res, err := m.Run(Options{Replicas: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	wantAxes := []string{"sched.policy", "jobs", "fleet.members", "member"}
	if !reflect.DeepEqual(res.AxisNames, wantAxes) {
		t.Fatalf("AxisNames = %v, want %v", res.AxisNames, wantAxes)
	}
	// 2 policies × 1 jobs × 1 fleet value, each expanded into 2 members +
	// the fleet row.
	if len(res.Scenarios) != 2*3 {
		t.Fatalf("got %d rows, want 6", len(res.Scenarios))
	}
	for i := 0; i < len(res.Scenarios); i += 3 {
		rows := res.Scenarios[i : i+3]
		if got := rows[0].Scenario.Labels[3]; got != "philly-small" {
			t.Fatalf("row %d member label = %q", i, got)
		}
		if got := rows[1].Scenario.Labels[3]; got != "helios-like" {
			t.Fatalf("row %d member label = %q", i+1, got)
		}
		if got := rows[2].Scenario.Labels[3]; got != fleetMemberLabel {
			t.Fatalf("row %d member label = %q", i+2, got)
		}
		// The jobs=200 apply must have reached every member's config.
		for r := 0; r < 2; r++ {
			if rows[r].Scenario.Config.Workload.TotalJobs != 200 {
				t.Fatalf("member row config kept %d jobs, want 200",
					rows[r].Scenario.Config.Workload.TotalJobs)
			}
		}
		// Completed jobs are never offloaded shells, so the fleet row's
		// count must equal the member sum exactly.
		wantCompleted := rows[0].Replicas[0].Completed + rows[1].Replicas[0].Completed
		if got := rows[2].Replicas[0].Completed; got != wantCompleted {
			t.Fatalf("fleet completed = %d, want member sum %d", got, wantCompleted)
		}
		if rows[2].Replicas[0].Jobs == 0 || rows[2].Replicas[0].GPUHours <= 0 {
			t.Fatal("fleet row carries no load")
		}
	}
	table := res.RenderTable()
	if !strings.Contains(table, "member") || !strings.Contains(table, fleetMemberLabel) {
		t.Fatalf("rendered table lacks the member column:\n%s", table)
	}
}

// TestFederatedSweepDeterminism: the federated path inherits the harness
// guarantee — byte-identical output across worker counts.
func TestFederatedSweepDeterminism(t *testing.T) {
	m := fleetMatrix(t)
	m.Axes = m.Axes[1:] // jobs + fleet only: 3 rows, fast enough to run twice
	r1, err := m.Run(Options{Replicas: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	r4, err := m.Run(Options{Replicas: 2, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r4) {
		t.Fatal("federated sweep diverged between workers=1 and workers=4")
	}
}

// TestFederatedExportRoundTrip: the JSON export carries the fleet member
// lists and member rows, and decodes back to the same table and plots.
func TestFederatedExportRoundTrip(t *testing.T) {
	m := fleetMatrix(t)
	m.Axes = m.Axes[1:]
	res, err := m.Run(Options{Replicas: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"fleet"`) {
		t.Fatal("export lacks the fleet member list")
	}
	back, err := DecodeJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.RenderTable() != res.RenderTable() {
		t.Fatal("decoded table differs from the original")
	}
	if !reflect.DeepEqual(back.Scenarios[0].Scenario.Fleet, res.Scenarios[0].Scenario.Fleet) {
		t.Fatal("fleet member list lost in the round trip")
	}
	var csv1, csv2 bytes.Buffer
	if err := res.WritePlotCSV(&csv1); err != nil {
		t.Fatal(err)
	}
	if err := back.WritePlotCSV(&csv2); err != nil {
		t.Fatal(err)
	}
	if csv1.String() != csv2.String() {
		t.Fatal("plot CSV differs after the round trip")
	}
	if !strings.Contains(csv1.String(), "member") {
		t.Fatal("plot CSV lacks the member column")
	}
}

// TestFederatedStreamingMatchesBatch pins runFederatedCell — members
// streamed into per-member analysis.StreamReducers, each finished once,
// the fleet row combined from their tallies — against a replay of fully
// retained member results through the same fold (analysis.Fold, then
// analysis.CombineFleet): every member row and the fleet row must be
// bit-identical. A streamed run must also actually release completed
// jobs' attempt records.
func TestFederatedStreamingMatchesBatch(t *testing.T) {
	const seed = 23
	members := []string{"philly-small", "helios-like"}
	jobs250 := func(c *core.Config) { c.Workload.TotalJobs = 250 }
	sc := Scenario{Fleet: members, applies: []func(*core.Config){jobs250}}
	fcfg, err := federatedConfig(&sc, seed)
	if err != nil {
		t.Fatal(err)
	}

	batchRes, err := federation.Run(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	tallies := make([]analysis.Tally, 0, len(batchRes.Members))
	batch := make([]ReplicaMetrics, 0, len(batchRes.Members)+1)
	for _, m := range batchRes.Members {
		tallies = append(tallies, analysis.Fold(m.Result))
		batch = append(batch, Reduce(m.Result))
	}
	batch = append(batch, replicaMetrics(seed, analysis.CombineFleet(tallies)))

	stream, err := runFederatedCell(&sc, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batch, stream) {
		t.Fatalf("streamed federated cell diverged from the replayed fold:\nbatch:  %+v\nstream: %+v", batch, stream)
	}

	st, err := federation.NewStudy(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	st.StreamMemberJobs(func(mi, i int, r *core.JobResult) {})
	streamRes, err := st.Run()
	if err != nil {
		t.Fatal(err)
	}
	released, completed := 0, 0
	for _, m := range streamRes.Members {
		for i := range m.Result.Jobs {
			j := &m.Result.Jobs[i]
			if j.Completed {
				completed++
				if j.Attempts == nil {
					released++
				}
			}
		}
	}
	if completed == 0 || released != completed {
		t.Fatalf("streaming did not release attempt records: %d/%d released", released, completed)
	}
}

// chaosFleetMatrix is one federated cell that both spills and evacuates:
// the philly-small+helios-like presets trimmed to 2,500 jobs each, with
// every outage domain at 8x frequency and 30-minute checkpoints. At base
// seed 1 its replica 0 makes 55 spillover and 396 evacuation moves.
func chaosFleetMatrix(t *testing.T) Matrix {
	t.Helper()
	m := Matrix{Base: tinyConfig(), Axes: []Axis{
		mustParse(t, "jobs=2500"),
		mustParse(t, "fleet.members=philly-small+helios-like"),
		mustParse(t, "failure.domains=all:8"),
		mustParse(t, "checkpoint.interval=30"),
	}}
	m.Base.Seed = 1
	return m
}

// chaosFleetResult re-runs chaosFleetMatrix's replica-0 cell through
// federation's public API, with every record retained, and returns it with
// each member's generated job count.
func chaosFleetResult(t *testing.T) (*federation.Result, []int) {
	t.Helper()
	m := chaosFleetMatrix(t)
	scenarios, err := m.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	fcfg, err := federatedConfig(&scenarios[0], DeriveSeed(m.Base.Seed, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	st, err := federation.NewStudy(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	generated := make([]int, st.NumMembers())
	for i := range generated {
		generated[i] = st.MemberNumJobs(i)
	}
	res, err := st.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Fleet.SpilloverMoves == 0 || res.Fleet.EvacuationMoves == 0 {
		t.Fatalf("chaos fleet made %d spillover and %d evacuation moves; it must make both",
			res.Fleet.SpilloverMoves, res.Fleet.EvacuationMoves)
	}
	return res, generated
}

// TestFleetConservation checks the fleet table of a federation that spills
// and evacuates against quantities the fold never computes: every
// generated job is counted exactly once fleet-wide (shells excluded, moved
// copies counted where they landed), the traffic columns balance against
// federation's move counters, and the fleet's GPU-hours are exactly the
// sum of its member rows.
func TestFleetConservation(t *testing.T) {
	res, generated := chaosFleetResult(t)
	rows := analysis.ComputeFleet(res).Rows
	if len(rows) != len(res.Members)+1 {
		t.Fatalf("got %d rows, want %d members + fleet", len(rows), len(res.Members))
	}
	members, fleet := rows[:len(res.Members)], rows[len(res.Members)]

	wantJobs := 0
	for _, n := range generated {
		wantJobs += n
	}
	if fleet.Jobs != wantJobs {
		t.Errorf("fleet jobs = %d, want %d generated", fleet.Jobs, wantJobs)
	}
	if fleet.Offloaded != res.Fleet.SpilloverMoves || fleet.Received != res.Fleet.SpilloverMoves {
		t.Errorf("fleet offloaded/received = %d/%d, want %d spillover moves",
			fleet.Offloaded, fleet.Received, res.Fleet.SpilloverMoves)
	}
	if fleet.Evacuated != res.Fleet.EvacuationMoves || fleet.Resumed != res.Fleet.EvacuationMoves {
		t.Errorf("fleet evacuated/resumed = %d/%d, want %d evacuation moves",
			fleet.Evacuated, fleet.Resumed, res.Fleet.EvacuationMoves)
	}
	gpuHours := 0.0
	for i, row := range members {
		fs := res.Fleet.Members[i]
		if row.Offloaded != fs.JobsOffloaded || row.Received != fs.JobsReceived ||
			row.Evacuated != fs.JobsEvacuated || row.Resumed != fs.JobsResumed {
			t.Errorf("%s traffic = %d/%d/%d/%d, federation counted %+v",
				row.Name, row.Offloaded, row.Received, row.Evacuated, row.Resumed, fs)
		}
		gpuHours += row.GPUHours
	}
	if fleet.GPUHours != gpuHours {
		t.Errorf("fleet GPU-hours = %v, want the member sum %v", fleet.GPUHours, gpuHours)
	}
}

// Golden output of TestFleetFoldGolden: the sha256 of chaosFleetMatrix's
// sweep JSON export, and per fleet-table row (members in fleet order, then
// the fleet) its GPUs, Jobs, Completed and FailedAttempts followed by the
// math.Float64bits of DelayP50, DelayP95, UtilMean, GPUHours,
// FailedGPUHours, UnsuccessfulPct, LostGPUHours, CkptGPUHours and
// ImbalancePct.
const goldenFleetExportSHA256 = "8e6942ff06c4f48229d2a07d9d95a23da802460756659911b3aea59c5e247d35"

var goldenFleetRows = [][13]uint64{
	{0xf0, 0x95f, 0x95f, 0x4db,
		0x0, 0x4001999999999800, 0x404b64a40aee5ed6, 0x40e06acdb05b05b4, 0x40ce5a392345677e, 0x402dd884526188b2, 0x40a28abe4b17e4b2, 0x406c2c8bed925ccc, 0x0},
	{0xf0, 0xa29, 0xa29, 0x75c,
		0x0, 0x0, 0x404c0b85e4528b55, 0x40d50192b3c4d5e5, 0x40c3860c1fdb9749, 0x4035e04ebd2b9a08, 0x40722a1b4e81b4e8, 0x406c7120d8a9a8b5, 0x0},
	{0x1e0, 0x1388, 0x1388, 0xc37,
		0x0, 0x0, 0x404bb453f4976729, 0x40eaeb970a3d70a6, 0x40d8f022a1907f64, 0x40328a3d70a3d70a, 0x40a4d001b4e81b4f, 0x407c4ed6631e02c0, 0x3ff4dc3b2c858fe0},
}

// TestFleetFoldGolden pins the federated fold's output bits against
// constants: the sweep export of a federation that spills and evacuates,
// and every count and float of its fleet table except the four traffic
// columns (offloaded, received, evac, resumed), which count moves rather
// than fold records. TestFederatedStreamingMatchesBatch compares two ways
// of feeding the fold with each other; this test catches a change that
// moves both the same way, such as a new summation order.
//
// The constants change only with a deliberate output-contract change. To
// re-record them, run
//
//	go test -run TestFleetFoldGolden ./internal/sweep
//
// and copy the got values from the failure messages. amd64 only: other
// architectures may fuse multiply-adds and round differently.
func TestFleetFoldGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden float bits are recorded on amd64, not %s", runtime.GOARCH)
	}
	swept, err := chaosFleetMatrix(t).Run(Options{Replicas: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if err := swept.WriteJSON(h); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != goldenFleetExportSHA256 {
		t.Errorf("sweep export sha256 = %q, want %q", got, goldenFleetExportSHA256)
	}

	res, _ := chaosFleetResult(t)
	rows := analysis.ComputeFleet(res).Rows
	got := make([][13]uint64, len(rows))
	for i, r := range rows {
		got[i] = [13]uint64{
			uint64(r.GPUs), uint64(r.Jobs), uint64(r.Completed), uint64(r.FailedAttempts),
			math.Float64bits(r.DelayP50), math.Float64bits(r.DelayP95),
			math.Float64bits(r.UtilMean), math.Float64bits(r.GPUHours),
			math.Float64bits(r.FailedGPUHours), math.Float64bits(r.UnsuccessfulPct),
			math.Float64bits(r.LostGPUHours), math.Float64bits(r.CkptGPUHours),
			math.Float64bits(r.ImbalancePct),
		}
	}
	if !reflect.DeepEqual(got, goldenFleetRows) {
		var b strings.Builder
		for _, g := range got {
			fmt.Fprintf(&b, "\t{%#x, %#x, %#x, %#x,\n\t\t", g[0], g[1], g[2], g[3])
			for k := 4; k < len(g); k++ {
				fmt.Fprintf(&b, "%#x, ", g[k])
			}
			b.WriteString("},\n")
		}
		t.Errorf("fleet table rows differ from goldenFleetRows; got:\n%s", b.String())
	}
}
