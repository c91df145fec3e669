// Package failures implements the paper's failure model (§4.2): the
// 22-reason taxonomy of Table 7 with per-reason category flags
// (Infrastructure / AI Engine / User), occurrence frequency, runtime-to-
// failure (RTF) distributions, GPU-demand profiles, and determinism; a
// failure planner that dooms jobs consistently with those statistics; and
// the retry policy Philly applies before marking a job unsuccessful.
//
// The published Table 7 aggregates are the generative spec: the planner
// draws from distributions fit to the paper's numbers, and the analysis
// pipeline (internal/analysis) re-derives the table from simulated events,
// closing the loop.
package failures

import (
	"fmt"

	"philly/internal/stats"
)

// Category is a bitmask of the layers a failure reason can originate from
// (Table 7 columns IF / AE / U). A reason may belong to several categories.
type Category uint8

const (
	// Infrastructure covers YARN, HDFS and other framework components.
	Infrastructure Category = 1 << iota
	// AIEngine covers TensorFlow, Torch, CNTK and other platforms.
	AIEngine
	// User covers programmer errors in code or configuration.
	User
)

// Has reports whether c includes the given category bit.
func (c Category) Has(bit Category) bool { return c&bit != 0 }

// String renders the category set as e.g. "IF|AE|U".
func (c Category) String() string {
	s := ""
	if c.Has(Infrastructure) {
		s += "IF|"
	}
	if c.Has(AIEngine) {
		s += "AE|"
	}
	if c.Has(User) {
		s += "U|"
	}
	if s == "" {
		return "-"
	}
	return s[:len(s)-1]
}

// DemandBucket indexes the paper's GPU-demand columns in Table 7.
type DemandBucket int

const (
	// Demand1 is 1-GPU jobs.
	Demand1 DemandBucket = iota
	// Demand2to4 is 2-4 GPU jobs.
	Demand2to4
	// DemandOver4 is >4 GPU jobs.
	DemandOver4
	// NumDemandBuckets is the bucket count.
	NumDemandBuckets
)

// BucketFor maps a GPU count to its Table 7 demand bucket.
func BucketFor(gpus int) DemandBucket {
	switch {
	case gpus <= 1:
		return Demand1
	case gpus <= 4:
		return Demand2to4
	default:
		return DemandOver4
	}
}

// String names the bucket as the paper prints it.
func (b DemandBucket) String() string {
	switch b {
	case Demand1:
		return "1"
	case Demand2to4:
		return "2-4"
	case DemandOver4:
		return ">4"
	default:
		return "?"
	}
}

// Reason is one failure class from Table 7 plus the generative parameters
// needed to simulate it.
type Reason struct {
	// Code is the stable machine key (snake_case).
	Code string
	// Name is the human-readable name as printed in Table 7.
	Name string
	// Categories are the layers this reason is observed in.
	Categories Category
	// TrialWeight is the relative occurrence frequency (Table 7 "Trial").
	TrialWeight float64
	// PaperJobs and PaperUsers are Table 7's Job and User counts, kept for
	// calibration targets in EXPERIMENTS.md.
	PaperJobs, PaperUsers float64
	// RTFMedianMin / RTFP90Min / RTFP95Min are the paper's runtime-to-
	// failure percentiles in minutes; the first two parameterize the
	// sampling distribution, the third is a validation target.
	RTFMedianMin, RTFP90Min, RTFP95Min float64
	// DemandWeights are the per-bucket occurrence counts (Table 7 column
	// "GPU Demand": 1 / 2-4 / >4).
	DemandWeights [NumDemandBuckets]float64
	// Deterministic marks reasons that re-occur on every retry of the same
	// job (user code and config errors); transient reasons may pass on
	// retry.
	Deterministic bool
	// DemandRTFSlope, when non-zero, tilts sampled RTFs with GPU demand:
	// the log-RTF gets +slope*ln(gpus) (recentred), reproducing Figure 10's
	// observation that semantic errors on high-demand jobs fail late.
	DemandRTFSlope float64

	rtf stats.LogNormalSpec
}

// Reason codes, exported so other packages can refer to specific rows.
const (
	CodeCPUOOM           = "cpu_oom"
	CodeIncorrectInputs  = "incorrect_inputs"
	CodeSemanticError    = "semantic_error"
	CodeCoreDump         = "core_dump"
	CodeInvalidMemAccess = "invalid_mem_access"
	CodeModelCkptError   = "model_ckpt_error"
	CodeCUDAFailure      = "cuda_failure"
	CodeSyntaxError      = "syntax_error"
	CodeTraceback        = "traceback_from_crash"
	CodeMPIError         = "mpi_error"
	CodeGPUOOM           = "gpu_oom"
	CodeMPIRuntime       = "mpi_runtime_failure"
	CodePermissionError  = "permission_error"
	CodeImportError      = "import_error"
	CodeJobPreempted     = "job_preempted"
	CodeCUDAInitFailed   = "cuda_init_failed"
	CodeModelDiverged    = "model_diverged"
	CodeCUDAVerMismatch  = "cuda_ver_mismatch"
	CodeGPUECCError      = "gpu_ecc_error"
	CodeOutputNodeError  = "output_node_error"
	CodeCannotLoadLibs   = "cannot_load_libs"
	// CodeNoSignature is the classifier's fallback; it is not a planned
	// reason but appears when a failure log carries no recognizable
	// signature.
	CodeNoSignature = "no_signature"
)

// Taxonomy returns the full Table 7 reason list with calibrated parameters.
// The slice is freshly allocated; callers may reorder it.
func Taxonomy() []Reason {
	rs := []Reason{
		{
			Code: CodeCPUOOM, Name: "CPU out of memory",
			Categories:  AIEngine | User,
			TrialWeight: 12076, PaperJobs: 2803, PaperUsers: 65,
			RTFMedianMin: 13.45, RTFP90Min: 17.73, RTFP95Min: 33.97,
			DemandWeights: [NumDemandBuckets]float64{11465, 235, 376},
			Deterministic: true,
		},
		{
			Code: CodeIncorrectInputs, Name: "Incorrect inputs",
			Categories:  AIEngine | User,
			TrialWeight: 9690, PaperJobs: 4936, PaperUsers: 208,
			RTFMedianMin: 1.87, RTFP90Min: 404.83, RTFP95Min: 2095.73,
			DemandWeights:  [NumDemandBuckets]float64{5844, 2638, 1208},
			Deterministic:  true,
			DemandRTFSlope: -0.4,
		},
		{
			Code: CodeSemanticError, Name: "Semantic error",
			Categories:  AIEngine | User,
			TrialWeight: 2943, PaperJobs: 2049, PaperUsers: 159,
			RTFMedianMin: 2.72, RTFP90Min: 376.00, RTFP95Min: 1436.88,
			DemandWeights:  [NumDemandBuckets]float64{1603, 494, 846},
			Deterministic:  true,
			DemandRTFSlope: 0.5,
		},
		{
			Code: CodeCoreDump, Name: "Core dump",
			Categories:  AIEngine | User,
			TrialWeight: 2912, PaperJobs: 1784, PaperUsers: 122,
			RTFMedianMin: 0.85, RTFP90Min: 72.75, RTFP95Min: 431.65,
			DemandWeights: [NumDemandBuckets]float64{1936, 496, 480},
			Deterministic: true,
		},
		{
			Code: CodeInvalidMemAccess, Name: "Invalid mem access",
			Categories:  User,
			TrialWeight: 2602, PaperJobs: 1235, PaperUsers: 108,
			RTFMedianMin: 1.03, RTFP90Min: 403.50, RTFP95Min: 1357.38,
			DemandWeights:  [NumDemandBuckets]float64{712, 774, 1116},
			Deterministic:  true,
			DemandRTFSlope: -0.3,
		},
		{
			Code: CodeModelCkptError, Name: "Model ckpt error",
			Categories:  Infrastructure,
			TrialWeight: 1995, PaperJobs: 948, PaperUsers: 85,
			RTFMedianMin: 181.67, RTFP90Min: 3728.93, RTFP95Min: 8196.02,
			DemandWeights:  [NumDemandBuckets]float64{743, 384, 868},
			Deterministic:  false,
			DemandRTFSlope: -0.4,
		},
		{
			Code: CodeCUDAFailure, Name: "CUDA failure",
			Categories:  AIEngine,
			TrialWeight: 1484, PaperJobs: 571, PaperUsers: 70,
			RTFMedianMin: 1.32, RTFP90Min: 19.87, RTFP95Min: 82.17,
			DemandWeights: [NumDemandBuckets]float64{133, 1153, 198},
			Deterministic: false,
		},
		{
			Code: CodeSyntaxError, Name: "Syntax error",
			Categories:  AIEngine | User,
			TrialWeight: 1132, PaperJobs: 883, PaperUsers: 110,
			RTFMedianMin: 0.58, RTFP90Min: 5.02, RTFP95Min: 12.00,
			DemandWeights: [NumDemandBuckets]float64{780, 184, 168},
			Deterministic: true,
		},
		{
			Code: CodeTraceback, Name: "Traceback from crash",
			Categories:  Infrastructure | AIEngine | User,
			TrialWeight: 777, PaperJobs: 271, PaperUsers: 44,
			RTFMedianMin: 1.02, RTFP90Min: 894.33, RTFP95Min: 1394.07,
			DemandWeights: [NumDemandBuckets]float64{356, 277, 144},
			Deterministic: true,
		},
		{
			Code: CodeMPIError, Name: "MPI error",
			Categories:  AIEngine,
			TrialWeight: 634, PaperJobs: 166, PaperUsers: 28,
			RTFMedianMin: 1.62, RTFP90Min: 3015.27, RTFP95Min: 5143.98,
			DemandWeights: [NumDemandBuckets]float64{456, 54, 124},
			Deterministic: false,
		},
		{
			Code: CodeGPUOOM, Name: "GPU out of memory",
			Categories:  User,
			TrialWeight: 487, PaperJobs: 261, PaperUsers: 35,
			RTFMedianMin: 18.53, RTFP90Min: 353.62, RTFP95Min: 2740.28,
			DemandWeights: [NumDemandBuckets]float64{237, 70, 180},
			Deterministic: true,
		},
		{
			Code: CodeMPIRuntime, Name: "MPI runtime failure",
			Categories:  Infrastructure,
			TrialWeight: 478, PaperJobs: 420, PaperUsers: 96,
			RTFMedianMin: 1389.48, RTFP90Min: 13778.60, RTFP95Min: 18090.88,
			DemandWeights:  [NumDemandBuckets]float64{240, 141, 97},
			Deterministic:  false,
			DemandRTFSlope: -0.4,
		},
		{
			Code: CodePermissionError, Name: "Permission error",
			Categories:  Infrastructure,
			TrialWeight: 299, PaperJobs: 151, PaperUsers: 37,
			RTFMedianMin: 1.00, RTFP90Min: 8.15, RTFP95Min: 15.85,
			DemandWeights: [NumDemandBuckets]float64{56, 202, 41},
			Deterministic: true,
		},
		{
			Code: CodeImportError, Name: "Import error",
			Categories:  AIEngine | User,
			TrialWeight: 148, PaperJobs: 148, PaperUsers: 41,
			RTFMedianMin: 0.67, RTFP90Min: 4.58, RTFP95Min: 10.73,
			DemandWeights: [NumDemandBuckets]float64{108, 30, 10},
			Deterministic: true,
		},
		{
			Code: CodeJobPreempted, Name: "Job preempted",
			Categories:  Infrastructure,
			TrialWeight: 147, PaperJobs: 95, PaperUsers: 34,
			RTFMedianMin: 559.08, RTFP90Min: 2682.85, RTFP95Min: 5892.23,
			DemandWeights: [NumDemandBuckets]float64{25, 95, 27},
			Deterministic: false,
		},
		{
			Code: CodeCUDAInitFailed, Name: "CUDA init failed",
			Categories:  Infrastructure,
			TrialWeight: 141, PaperJobs: 69, PaperUsers: 20,
			RTFMedianMin: 1.08, RTFP90Min: 2.18, RTFP95Min: 4.63,
			DemandWeights: [NumDemandBuckets]float64{16, 66, 59},
			Deterministic: false,
		},
		{
			Code: CodeModelDiverged, Name: "Model diverged",
			Categories:  User,
			TrialWeight: 84, PaperJobs: 30, PaperUsers: 5,
			RTFMedianMin: 1.48, RTFP90Min: 44.37, RTFP95Min: 76.53,
			DemandWeights: [NumDemandBuckets]float64{78, 5, 1},
			Deterministic: true,
		},
		{
			Code: CodeCUDAVerMismatch, Name: "CUDA ver. mismatch",
			Categories:  Infrastructure,
			TrialWeight: 49, PaperJobs: 49, PaperUsers: 19,
			RTFMedianMin: 0.83, RTFP90Min: 1.65, RTFP95Min: 1.67,
			DemandWeights: [NumDemandBuckets]float64{1, 1, 47},
			Deterministic: true,
		},
		{
			Code: CodeGPUECCError, Name: "GPU ECC error",
			Categories:  Infrastructure,
			TrialWeight: 10, PaperJobs: 10, PaperUsers: 2,
			RTFMedianMin: 26.82, RTFP90Min: 671.92, RTFP95Min: 2035.02,
			DemandWeights: [NumDemandBuckets]float64{1, 5, 4},
			Deterministic: false,
		},
		{
			Code: CodeOutputNodeError, Name: "Output node error",
			Categories:  Infrastructure | AIEngine | User,
			TrialWeight: 3, PaperJobs: 3, PaperUsers: 1,
			RTFMedianMin: 0.85, RTFP90Min: 0.95, RTFP95Min: 0.95,
			DemandWeights: [NumDemandBuckets]float64{3, 0.01, 0.01},
			Deterministic: true,
		},
		{
			Code: CodeCannotLoadLibs, Name: "Cannot load libs",
			Categories:  Infrastructure,
			TrialWeight: 1, PaperJobs: 1, PaperUsers: 1,
			RTFMedianMin: 0.12, RTFP90Min: 0.12, RTFP95Min: 0.12,
			DemandWeights: [NumDemandBuckets]float64{1, 0.01, 0.01},
			Deterministic: true,
		},
	}
	for i := range rs {
		spec, err := stats.LogNormalFromQuantiles(rs[i].RTFMedianMin, 0.9, rs[i].RTFP90Min)
		if err != nil {
			// Taxonomy data is static; an error here is a programming bug.
			panic(fmt.Sprintf("failures: bad RTF quantiles for %s: %v", rs[i].Code, err))
		}
		rs[i].rtf = spec
	}
	return rs
}

// ByCode returns the taxonomy indexed by reason code.
func ByCode() map[string]*Reason {
	tax := Taxonomy()
	m := make(map[string]*Reason, len(tax))
	for i := range tax {
		m[tax[i].Code] = &tax[i]
	}
	return m
}
