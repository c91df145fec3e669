package philly_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"philly"
	"philly/internal/failures"
)

var (
	facadeOnce sync.Once
	facadeRes  *philly.StudyResult
	facadeErr  error
)

func facadeResult(t *testing.T) *philly.StudyResult {
	t.Helper()
	facadeOnce.Do(func() {
		cfg := philly.SmallConfig()
		cfg.Workload.TotalJobs = 800
		cfg.Workload.Duration /= 2
		facadeRes, facadeErr = philly.Run(cfg)
	})
	if facadeErr != nil {
		t.Fatal(facadeErr)
	}
	return facadeRes
}

func TestRunAndAnalyze(t *testing.T) {
	res := facadeResult(t)
	if len(res.Jobs) != 800 {
		t.Fatalf("jobs = %d", len(res.Jobs))
	}
	report := philly.Analyze(res)
	out := report.RenderAll()
	for _, want := range []string{
		"Figure 2", "Figure 3", "Figure 4", "Table 2", "Figure 5", "Table 3",
		"Table 4", "Figure 6", "Figure 7", "Table 5", "Table 6", "Figure 8",
		"Figure 9", "Table 7", "Figure 10", "Scheduling behaviour",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing section %q", want)
		}
	}
	var buf bytes.Buffer
	if err := report.WriteAll(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("WriteAll produced nothing")
	}
}

func TestRunRejectsInvalidConfig(t *testing.T) {
	cfg := philly.SmallConfig()
	cfg.Workload.TotalJobs = -1
	if _, err := philly.Run(cfg); err == nil {
		t.Error("want error for invalid config")
	}
}

func TestTraceExport(t *testing.T) {
	res := facadeResult(t)
	tr := philly.NewTrace(res)
	if len(tr.Jobs) == 0 {
		t.Fatal("empty trace")
	}
	var buf bytes.Buffer
	if err := tr.WriteJobsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != len(tr.Jobs)+1 {
		t.Errorf("csv has %d lines, want %d", lines, len(tr.Jobs)+1)
	}
}

func TestClassifierFacade(t *testing.T) {
	if philly.NumClassifierRules() < 230 {
		t.Errorf("rules = %d, want > 230", philly.NumClassifierRules())
	}
	if got := philly.ClassifyFailureLog("CUDA out of memory"); got != "gpu_oom" {
		t.Errorf("Classify = %q", got)
	}
	if got := philly.ClassifyFailureLog("nothing to see"); got != "no_signature" {
		t.Errorf("Classify = %q", got)
	}
	if len(philly.FailureTaxonomy()) != 21 {
		t.Errorf("taxonomy size = %d", len(philly.FailureTaxonomy()))
	}
}

func TestPolicyConstantsDistinct(t *testing.T) {
	seen := map[philly.Policy]bool{}
	for _, p := range []philly.Policy{
		philly.PolicyPhilly, philly.PolicyFIFO, philly.PolicySRTF,
		philly.PolicyTiresias, philly.PolicyGandiva,
	} {
		if seen[p] {
			t.Fatalf("duplicate policy constant %v", p)
		}
		seen[p] = true
	}
}

func TestRenderTable4(t *testing.T) {
	report := philly.Analyze(facadeResult(t))
	s := philly.RenderTable4(report.Table4)
	for _, cfgName := range []string{"SameServer", "DiffServer", "IntraServer", "InterServer"} {
		if !strings.Contains(s, cfgName) {
			t.Errorf("Table 4 render missing %s", cfgName)
		}
	}
}

// TestRunFederatedFacade drives the multi-cluster surface end to end:
// spec parsing, a federated run over the shared pool, and the fleet
// analysis table.
func TestRunFederatedFacade(t *testing.T) {
	cfg, err := philly.ParseFederationSpec(9, "philly-small+helios-like")
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Members) != 2 {
		t.Fatalf("got %d members", len(cfg.Members))
	}
	// Shrink the members so the facade test stays fast.
	for i := range cfg.Members {
		cfg.Members[i].Config.Workload.TotalJobs = 150
	}
	res, err := philly.RunFederated(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Members) != 2 {
		t.Fatalf("got %d member results", len(res.Members))
	}
	table := philly.AnalyzeFleet(res).Render()
	for _, want := range []string{"philly-small", "helios-like", "fleet"} {
		if !strings.Contains(table, want) {
			t.Fatalf("fleet table lacks %q:\n%s", want, table)
		}
	}
	if len(philly.FederationPresets()) < 4 {
		t.Fatalf("presets = %v", philly.FederationPresets())
	}
	if _, err := philly.ParseFederationSpec(1, "bogus-preset"); err == nil {
		t.Fatal("bogus preset accepted")
	}
}

// Golden output of TestStudyOutputGolden's study: the sha256 of its jobs
// CSV followed by its trace JSON, with AdaptiveRetry off and on, and the
// math.Float64bits of its telemetry means All, AllByStatus(Passed, Killed,
// Unsuccessful), HostCPU and HostMem, in that order, with AdaptiveRetry
// off.
var goldenExportSHA256 = [2]string{
	"3f48524241481532f0e38575084d1cd7f932a409406a5eb352f615c018719bfd",
	"f1c696e96b30d90af4e9e51b9eacab0ca1803584e1448f62449eaf7f0a8daa18",
}

var goldenMeanBits = [...]uint64{
	0x404cd8c4b61857b9, 0x404d24e33919e64d, 0x4047a262d8571345,
	0x4052c817d7f70315, 0x402037edbd2ac166, 0x40425206fde40867,
}

// goldenEndSHA256 is outcomeDigest of the same study with AdaptiveRetry
// off and on: what each episode end decided, which the exports carry only
// in part (they omit Convergence).
var goldenEndSHA256 = [2]string{
	"4142ff1e0345b3465cdf9ab2a9fa80dd2207c34f97ebec4a5fba6f74d099628c",
	"f56471b06788347ddc384a14d770252bb3e71f9bf5c079a3e38b40c67d946790",
}

// outcomeDigest hashes, in job order, each job's Convergence (a marker
// byte when it is nil, else EpochsRun and the float bits of both
// fractions) and each attempt's ClassifiedReason.
func outcomeDigest(res *philly.StudyResult) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for i := range res.Jobs {
		j := &res.Jobs[i]
		if c := j.Convergence; c == nil {
			h.Write([]byte{0})
		} else {
			h.Write([]byte{1})
			put(uint64(c.EpochsRun))
			put(math.Float64bits(c.FractionForLowest))
			put(math.Float64bits(c.FractionWithinTenth))
		}
		put(uint64(len(j.Attempts)))
		for _, a := range j.Attempts {
			put(uint64(len(a.ClassifiedReason)))
			h.Write([]byte(a.ClassifiedReason))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestStudyOutputGolden pins one study's output bits — the trace export,
// what each episode end decided (outcomeDigest), and the telemetry float
// sums, which depend on the order the telemetry walk folds samples in —
// against constants, on the sequential engine and on four workers with
// per-VC event sharding, with AdaptiveRetry off and on. The invariance
// tests compare execution shapes with each other; this test catches a
// change that moves every shape the same way, such as a new fold order.
// The study is SmallConfig with servers and VC quotas tripled, 1,000 jobs
// over a quarter of the duration: 117 servers and a peak running set above
// 64 jobs, every sample folded into the recorder's one histogram set in
// the tick's order (running jobs, then servers).
//
// The constants change only with a deliberate output-contract change.
// To re-record them, run
//
//	go test -run TestStudyOutputGolden .
//
// and copy the got values from the failure messages into
// goldenExportSHA256, goldenEndSHA256 and goldenMeanBits. amd64 only:
// other architectures may fuse multiply-adds and round differently.
func TestStudyOutputGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden float bits are recorded on amd64, not %s", runtime.GOARCH)
	}
	cfg := philly.SmallConfig()
	for i := range cfg.Cluster.Racks {
		cfg.Cluster.Racks[i].Servers *= 3
	}
	for i := range cfg.Workload.VCs {
		cfg.Workload.VCs[i].QuotaGPUs *= 3
	}
	cfg.Workload.TotalJobs = 1000
	cfg.Workload.Duration /= 4
	cfg.Seed = 1
	runs := []struct {
		name string
		run  func(philly.Config) (*philly.StudyResult, error)
	}{
		{"sequential", philly.Run},
		{"parallel-4", func(c philly.Config) (*philly.StudyResult, error) { return philly.RunParallel(c, 4) }},
	}
	for _, r := range runs {
		for a, adaptive := range []bool{false, true} {
			cfg.AdaptiveRetry = adaptive
			res, err := r.run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tr := philly.NewTrace(res)
			h := sha256.New()
			if err := tr.WriteJobsCSV(h); err != nil {
				t.Fatal(err)
			}
			if err := tr.WriteJSON(h); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != goldenExportSHA256[a] {
				t.Errorf("%s adaptive=%v: export sha256 = %q, want %q", r.name, adaptive, got, goldenExportSHA256[a])
			}
			if got := outcomeDigest(res); got != goldenEndSHA256[a] {
				t.Errorf("%s adaptive=%v: outcome digest = %q, want %q", r.name, adaptive, got, goldenEndSHA256[a])
			}
			if adaptive {
				continue
			}
			tel := res.Telemetry
			means := [len(goldenMeanBits)]float64{
				tel.All().Mean(),
				tel.AllByStatus(failures.Passed).Mean(),
				tel.AllByStatus(failures.Killed).Mean(),
				tel.AllByStatus(failures.Unsuccessful).Mean(),
				tel.HostCPU().Mean(),
				tel.HostMem().Mean(),
			}
			var got [len(goldenMeanBits)]uint64
			for i, m := range means {
				got[i] = math.Float64bits(m)
			}
			if got != goldenMeanBits {
				t.Errorf("%s: telemetry mean bits = %#v, want %#v", r.name, got, goldenMeanBits)
			}
		}
	}
}
