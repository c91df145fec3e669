package trace

import (
	"bytes"
	"testing"
)

// fuzzSpecCSV / fuzzJobCSV are well-formed seeds for both CSV schemas the
// unified reader accepts; the remaining seeds steer the fuzzer toward the
// dispatch and row-validation edges. testdata/fuzz/ carries the same seeds
// as a committed corpus so `go test -fuzz` and plain `go test` both start
// from real trace shapes.
const (
	fuzzSpecCSV = "jobid,vc,user,num_gpus,submitted_time,planned_runtime_min,planned_outcome,epochs,minibatches_per_epoch,batch_time_sec,checkpoint_every_epochs,kill_fraction,logs_convergence,failed_attempts\n" +
		"1,vc-a,u1,2,0.5,100,Passed,10,50,0.12,1,0,1,gpu_oom@10|cuda_failure@5.5\n" +
		"2,vc-b,u2,8,30,90,Killed,12,60,0.05,0,0.9,0,\n" +
		"3,vc-a,u3,1,45,20,Unsuccessful,10,50,0.02,2,0,0,no_signature@4\n"
	fuzzJobCSV = "jobid,vc,user,num_gpus,submitted_time,started_time,finished_time,status,queue_delay,run_time,gpu_time,retries,num_servers,mean_gpu_util,delay_cause,failure_reason\n" +
		"1,vc0,u1,2,0.000,1.000,61.000,Passed,1.000,60.000,120.000,0,1,55.000,none,\n" +
		"2,vc0,u2,4,5.000,9.000,99.000,Failed,4.000,90.000,360.000,1,2,40.000,fair-share,gpu_oom\n"
	fuzzPhillyJSON = `[{"status":"Pass","vc":"vc1","jobid":"app1","user":"u1","submitted_time":"2017-10-01 00:00:00","attempts":[{"start_time":"2017-10-01 00:05:00","end_time":"2017-10-01 01:05:00","detail":[{"ip":"10.0.0.1","gpus":["g0","g1"]}]}]},{"status":"Killed","vc":"vc1","jobid":"app2","user":"u2","submitted_time":"2017-10-01 01:00:00","attempts":[{"start_time":"2017-10-01 01:10:00","end_time":"2017-10-01 02:00:00","detail":[{"ip":"10.0.0.2","gpus":["g0"]}]}]}]`
	fuzzTraceJSON  = `{"jobs":[{"jobid":1,"vc":"vc0","user":"u1","num_gpus":2,"submitted_time":0,"started_time":1,"finished_time":61,"status":"Passed","queue_delay":1,"run_time":60,"gpu_time":120,"retries":0,"num_servers":1,"mean_gpu_util":50,"delay_cause":"none"}],"attempts":[]}`
)

// Both fuzz targets share one oracle: any spec stream a reader accepted
// must survive the spec-CSV export unchanged — write it, read it back,
// write it again, and require byte-identical exports. This is the replay
// determinism contract stated as a fixed point: whatever bytes fed the
// reader, the canonical export round-trips exactly.

func FuzzReadTraceCSV(f *testing.F) {
	f.Add([]byte(fuzzSpecCSV))
	f.Add([]byte(fuzzJobCSV))
	f.Add([]byte("foo,bar\n1,2\n"))
	f.Add([]byte(fuzzSpecCSV[:bytes.IndexByte([]byte(fuzzSpecCSV), '\n')+1])) // header, no rows
	f.Add([]byte("jobid,vc,user,num_gpus,submitted_time,planned_runtime_min,planned_outcome,epochs,minibatches_per_epoch,batch_time_sec,checkpoint_every_epochs,kill_fraction,logs_convergence,failed_attempts\n1,vc,u,2,NaN,1,Passed,1,1,bogus,1,0,2,x@y\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		opts := DefaultReplayOptions()
		specs, err := ReadTraceCSV(bytes.NewReader(data), opts)
		if err != nil {
			return // rejected input; only panics and broken accepts are bugs
		}
		if len(specs) == 0 {
			t.Fatal("reader accepted input but returned no specs")
		}
		var w1 bytes.Buffer
		if err := WriteSpecsCSV(&w1, specs); err != nil {
			t.Fatalf("exporting accepted specs failed: %v", err)
		}
		specs2, err := ReadTraceCSV(bytes.NewReader(w1.Bytes()), opts)
		if err != nil {
			t.Fatalf("re-reading our own spec export failed: %v\nexport:\n%s", err, w1.String())
		}
		var w2 bytes.Buffer
		if err := WriteSpecsCSV(&w2, specs2); err != nil {
			t.Fatalf("re-exporting failed: %v", err)
		}
		if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
			t.Fatalf("spec export is not a fixed point:\nfirst:\n%s\nsecond:\n%s", w1.String(), w2.String())
		}
	})
}

func FuzzReadTraceJSON(f *testing.F) {
	f.Add([]byte(fuzzPhillyJSON))
	f.Add([]byte(fuzzTraceJSON))
	f.Add([]byte("{not json"))
	f.Add([]byte("[]"))
	f.Add([]byte(`{"jobs":[],"attempts":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		opts := DefaultReplayOptions()
		specs, err := readTraceJSON(bytes.NewReader(data), opts)
		if err != nil {
			return
		}
		if len(specs) == 0 {
			t.Fatal("reader accepted json but returned no specs")
		}
		// A JSON-loaded stream must satisfy the same export fixed point as a
		// CSV-loaded one: the two frontends feed the identical replay engine.
		var w1 bytes.Buffer
		if err := WriteSpecsCSV(&w1, specs); err != nil {
			t.Fatalf("exporting accepted specs failed: %v", err)
		}
		specs2, err := ReadTraceCSV(bytes.NewReader(w1.Bytes()), opts)
		if err != nil {
			t.Fatalf("re-reading our own spec export failed: %v\nexport:\n%s", err, w1.String())
		}
		var w2 bytes.Buffer
		if err := WriteSpecsCSV(&w2, specs2); err != nil {
			t.Fatalf("re-exporting failed: %v", err)
		}
		if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
			t.Fatalf("spec export is not a fixed point:\nfirst:\n%s\nsecond:\n%s", w1.String(), w2.String())
		}
	})
}
