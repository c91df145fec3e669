package cliflags

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"philly/internal/core"
	"philly/internal/faults"
	"philly/internal/federation"
	"philly/internal/simulation"
)

// parse registers a group on a fresh flag set and parses args into it,
// as Group.Parse does minus the exits.
func parse(add func(*flag.FlagSet) *Group, args ...string) (*Group, error) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	g := add(fs)
	return g, fs.Parse(args)
}

// resolve runs the path a command takes after parsing: a federation
// config under -federation, one study's config otherwise.
func resolve(g *Group) error {
	if g.Federation != "" {
		_, err := g.FederationConfig()
		return err
	}
	_, err := g.Config()
	return err
}

func TestDefaults(t *testing.T) {
	for name, add := range map[string]func(*flag.FlagSet) *Group{"Add": Add, "AddFleet": AddFleet} {
		g, err := parse(add)
		if err != nil {
			t.Fatal(err)
		}
		if g.Workers != 0 || g.Given("scale") {
			t.Errorf("%s: workers %d, scale given %v; want 0 and not given", name, g.Workers, g.Given("scale"))
		}
		got, err := g.Config()
		if err != nil {
			t.Fatal(err)
		}
		want, _ := core.ScaleConfig("small")
		want.Seed = 1
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the defaults do not resolve to the small config with seed 1", name)
		}
	}
}

func TestConfig(t *testing.T) {
	g, err := parse(AddFleet, "-scale", "medium", "-seed", "9", "-workers", "3", "-faults", "server+rack:2", "-checkpoint", "45:10")
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.Config()
	if err != nil {
		t.Fatal(err)
	}
	want := core.MediumConfig()
	want.Seed = 9
	want.Faults, _ = faults.ParseSpec("server+rack:2")
	want.Checkpoint, _ = core.ParseCheckpointSpec("45:10")
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Config() = %+v,\nwant %+v", got, want)
	}
	if g.Workers != 3 {
		t.Errorf("workers %d, want 3", g.Workers)
	}
}

// TestUsageErrors covers every usage error the group itself reports; the
// commands' own (-pattern with -replay, -policy, -replicas under
// -federation) are driven through the binaries by make cli-smoke.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		add  func(*flag.FlagSet) *Group
		args []string
		want string
	}{
		{"deleted knob", AddFleet, []string{"-shard-events"}, "flag provided but not defined: -shard-events"},
		{"unknown scale", AddFleet, []string{"-scale", "galactic"}, `unknown scale "galactic"`},
		{"bad faults", AddFleet, []string{"-faults", "bogus"}, `unknown level "bogus"`},
		{"bad checkpoint", AddFleet, []string{"-checkpoint", "x:y"}, `checkpoint spec "x:y"`},
		{"scale under federation", AddFleet, []string{"-federation", "philly-small", "-scale", "full"},
			"-scale is incompatible with -federation"},
		{"default scale spelled out under federation", AddFleet, []string{"-federation", "philly-small", "-scale", "small"},
			"-scale is incompatible with -federation"},
		{"bad faults under federation", AddFleet, []string{"-federation", "philly-small", "-faults", "bogus"},
			`unknown level "bogus"`},
		{"unknown member", AddFleet, []string{"-federation", "nosuch"}, `unknown member preset "nosuch"`},
		{"sweep: unknown scale", Add, []string{"-scale", "galactic"}, `unknown scale "galactic"`},
		{"sweep: no fleet flags", Add, []string{"-faults", "all"}, "flag provided but not defined: -faults"},
		{"sweep: deleted knob", Add, []string{"-shard-events"}, "flag provided but not defined: -shard-events"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := parse(tc.add, tc.args...)
			if err == nil {
				err = resolve(g)
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%v: error %v, want one containing %q", tc.args, err, tc.want)
			}
		})
	}
}

func TestFederationConfig(t *testing.T) {
	g, err := parse(AddFleet, "-federation", "philly-small+helios-like", "-seed", "5", "-faults", "all", "-checkpoint", "30")
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.FederationConfig()
	if err != nil {
		t.Fatal(err)
	}
	want, err := federation.ParseSpec(5, "philly-small+helios-like")
	if err != nil {
		t.Fatal(err)
	}
	fc, _ := faults.ParseSpec("all")
	cc, _ := core.ParseCheckpointSpec("30")
	for i := range want.Members {
		want.Members[i].Config.Faults = fc
		want.Members[i].Config.Checkpoint = cc
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("FederationConfig() does not put the faults and checkpoint models on every member")
	}

	// The faults grammar plans no maintenance windows, so give the parsed
	// model one and check that install copies it per config.
	fc.Maintenance = []faults.Maintenance{{Every: simulation.Day, Duration: simulation.Hour}}
	var a, b core.Config
	g.install(&a, fc, cc)
	g.install(&b, fc, cc)
	a.Faults.Maintenance[0].Duration = 2 * simulation.Hour
	if b.Faults.Maintenance[0].Duration != simulation.Hour || fc.Maintenance[0].Duration != simulation.Hour {
		t.Error("configs share the faults model's maintenance slice")
	}
}
