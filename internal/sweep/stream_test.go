package sweep

import (
	"reflect"
	"testing"

	"philly/internal/analysis"
	"philly/internal/core"
)

// TestStreamReducerMatchesBatchReduce runs the same study twice — once
// retained and batch-reduced, once streamed into an
// analysis.StreamReducer as the runner does — and requires bit-identical
// ReplicaMetrics, plus confirms streaming actually released the per-job
// attempt records.
func TestStreamReducerMatchesBatchReduce(t *testing.T) {
	cfg := core.SmallConfig()
	cfg.Seed = 31
	cfg.Workload.TotalJobs = 400
	cfg.Workload.Duration /= 4

	batchStudy, err := core.NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	batchRes, err := batchStudy.Run()
	if err != nil {
		t.Fatal(err)
	}
	batch := Reduce(batchRes)

	streamStudy, err := core.NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	red := analysis.NewStreamReducer(streamStudy.NumJobs())
	streamed := 0
	streamStudy.StreamJobs(func(i int, r *core.JobResult) {
		streamed++
		if !r.Completed {
			t.Errorf("streamed job %d not completed", i)
		}
		if len(r.Attempts) == 0 {
			t.Errorf("streamed job %d has no attempt records", i)
		}
		red.ObserveJob(i, r)
	})
	streamRes, err := streamStudy.Run()
	if err != nil {
		t.Fatal(err)
	}
	stream := replicaMetrics(streamRes.Config.Seed, red.Finish(streamRes))

	if !reflect.DeepEqual(batch, stream) {
		t.Fatalf("stream metrics differ from batch:\nbatch:  %+v\nstream: %+v", batch, stream)
	}
	if streamed == 0 {
		t.Fatal("no jobs were streamed")
	}
	trimmed := 0
	for i := range streamRes.Jobs {
		j := &streamRes.Jobs[i]
		if j.Completed && j.Attempts == nil && j.Convergence == nil {
			trimmed++
		}
	}
	if trimmed != streamed {
		t.Errorf("trimmed %d completed jobs, want %d (every streamed job released)", trimmed, streamed)
	}
	// The scalar fields must survive trimming.
	for i := range streamRes.Jobs {
		a, b := &batchRes.Jobs[i], &streamRes.Jobs[i]
		if a.GPUMinutes != b.GPUMinutes || a.EndAt != b.EndAt || a.Retries != b.Retries {
			t.Fatalf("job %d scalar fields diverged after streaming", i)
		}
	}
}
