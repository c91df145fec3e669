package serve

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzServeSpec is the Spec JSON's parse-surface oracle: no request body
// panics Resolve, and resolution is a fixed point — an accepted spec's
// Resolved, submitted again as a Spec, resolves to an equal Resolved with
// the same CanonicalHash, and builds its sweep matrix. The seeds are the
// specs of the serve tests and the README's curl example; MaxSpecStudies
// and MaxSpecJobs bound what any one input can cost.
func FuzzServeSpec(f *testing.F) {
	for _, body := range []string{
		// README.
		`{"scale":"small","axes":["sched.policy=philly,fifo"],"replicas":4}`,
		// spec_test.go.
		`{"replicas":1073741824}`,
		`{"jobs":1073741824}`,
		`{"axes":["failure.scale=1,2,3","telemetry.cadence=1,2,3","sched.policy=philly,fifo"]}`,
		`{"axes":["jobs=200,1073741824"]}`,
		`{"axes":["cluster.scale=1,1e300"]}`,
		`{"axes":["cluster.scale=NaN"]}`,
		`{"jobs":1,"axes":["failure.scale=1,2","telemetry.cadence=1,2","sched.backoff-min=1,2"]}`,
		`{"jobs":1,"replicas":5000}`,
		`{"scale":"full","replicas":4,"axes":["sched.policy=philly,fifo,srtf,tiresias,gandiva"]}`,
		`{"replay":"ok.csv"}`,
		`{"replay":"../ok.csv"}`,
		`{"axes":["workload.trace=ok.csv"]}`,
		`{"federation":"philly-small+helios-like","replay":"ok.csv"}`,
		`{"scale":"small","jobs":80,"seed":7}`,
		// http_test.go.
		`{"scale":"galactic"}`,
		`{"jobs":-3}`,
		`{"pattern":"nope"}`,
		`{"faults":"bogus"}`,
		`{"checkpoint":"bogus"}`,
		`{"federation":"nope"}`,
		`{"axes":["bogus"]}`,
		`{"pattern":"diurnal","replay":"x.trace"}`,
		`{"scale":"small","federation":"philly-small+philly-small"}`,
		// Every field at once, accepted.
		`{"seed":3,"pattern":"diurnal","faults":"rack+server:2","checkpoint":"30:10","federation":" philly-small++helios-like","axes":["sched.policy= fifo ,philly"]}`,
	} {
		f.Add(body)
	}
	// An empty trace directory: no input resolves a replay, so none reads
	// a file.
	traceDir := f.TempDir()
	f.Fuzz(func(t *testing.T, body string) {
		var s Spec
		if json.Unmarshal([]byte(body), &s) != nil {
			return
		}
		r, err := s.resolveWithin(traceDir)
		if err != nil {
			return
		}
		again := Spec{
			Scale: r.Scale, Seed: r.Seed, Jobs: r.Jobs, Replicas: r.Replicas,
			Pattern: r.Pattern, Faults: r.Faults, Checkpoint: r.Checkpoint,
			Federation: r.Federation, Axes: r.Axes,
		}
		if r.Federation != "" {
			// Scale and federation are exclusive; Resolved carries the
			// default scale either way.
			again.Scale = ""
		}
		r2, err := again.resolveWithin(traceDir)
		if err != nil {
			t.Fatalf("resolved spec %+v refused on resubmission: %v", r, err)
		}
		if !reflect.DeepEqual(r, r2) {
			t.Fatalf("resolution is not a fixed point:\n%+v\n%+v", r, r2)
		}
		if h, h2 := CanonicalHash(r), CanonicalHash(r2); h != h2 {
			t.Fatalf("hash %s changed to %s on resubmission", h, h2)
		}
		if _, err := r.BuildMatrix(); err != nil {
			t.Fatalf("BuildMatrix(%+v): %v", r, err)
		}
	})
}
