package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"speakup/internal/adversary"
	"speakup/internal/config"
	"speakup/internal/scenario"
)

// resolveArgs resolves a loadgen command line's scenario document the
// way main does.
func resolveArgs(args ...string) (config.Scenario, error) {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	var df docFlags
	df.register(fs)
	if err := fs.Parse(args); err != nil {
		return config.Scenario{}, err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	return df.resolve(set)
}

// groupsOf resolves args and returns the groups main runs.
func groupsOf(t *testing.T, args ...string) []scenario.ClientGroup {
	t.Helper()
	doc, err := resolveArgs(args...)
	if err != nil {
		t.Fatal(err)
	}
	run, err := doc.Config()
	if err != nil {
		t.Fatal(err)
	}
	return run.Groups
}

// writeDoc writes doc to a scenario file and returns its path.
func writeDoc(t *testing.T, doc config.Scenario) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := os.WriteFile(path, config.Encode(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestStrategyFreeRunsKeepTheirHash pins the config_hash of runs
// without an adversary strategy: the hash of the resolved document.
func TestStrategyFreeRunsKeepTheirHash(t *testing.T) {
	for _, c := range []struct {
		args []string
		hash string
	}{
		{nil, "63c8a64d103d"},
		{[]string{"-good", "2", "-bad", "5"}, "e881600389b6"},
		{[]string{"-scenario", "fig2"}, "a42d1cf14b1b"},
	} {
		doc, err := resolveArgs(c.args...)
		if err != nil {
			t.Fatal(err)
		}
		if got := config.ShortHash(doc); got != c.hash {
			t.Errorf("%q: config_hash %s, want %s", c.args, got, c.hash)
		}
	}
	gs := groupsOf(t)
	if want := (adversary.Spec{Name: "poisson", Lambda: 2, Window: 1}); gs[0].Spec() != want {
		t.Errorf("good spec %+v, want %+v", gs[0].Spec(), want)
	}
	if want := (adversary.Spec{Name: "poisson"}); gs[1].Spec() != want {
		t.Errorf("bad spec %+v, want the poisson profile's own λ/w %+v", gs[1].Spec(), want)
	}
}

// TestNoFlagsRunLiveDefault: with no -scenario the run is the embedded
// live_default document, hash and all.
func TestNoFlagsRunLiveDefault(t *testing.T) {
	none, err := resolveArgs()
	if err != nil {
		t.Fatal(err)
	}
	file, err := resolveArgs("-scenario", "live_default")
	if err != nil {
		t.Fatal(err)
	}
	if a, b := config.ShortHash(none), config.ShortHash(file); a != b {
		t.Errorf("no flags hash %s, -scenario live_default hash %s", a, b)
	}
	if none.Name != "live_default" {
		t.Errorf("scenario %q, want live_default", none.Name)
	}
}

// TestExampleRunsEveryGroup: each group of configs/example.json runs
// as its own cohort with its own strategy and bandwidth, as the
// simulator runs the same file.
func TestExampleRunsEveryGroup(t *testing.T) {
	gs := groupsOf(t, "-scenario", "example")
	want := []struct {
		name  string
		count int
		spec  adversary.Spec
		bw    float64
	}{
		{"good", 15, adversary.Spec{Name: "poisson", Lambda: 2, Window: 1}, 2e6},
		{"mimics", 10, adversary.Spec{Name: "mimic", Aggressiveness: 1.5}, 2e6},
		{"floods", 5, adversary.Spec{Name: "flood"}, 4e6},
	}
	if len(gs) != len(want) {
		t.Fatalf("%d groups, want %d", len(gs), len(want))
	}
	for i, w := range want {
		g := gs[i]
		if g.Name != w.name || g.Count != w.count || g.Spec() != w.spec || g.Bandwidth != w.bw {
			t.Errorf("group %d: %s ×%d %+v at %g bit/s, want %s ×%d %+v at %g bit/s",
				i, g.Name, g.Count, g.Spec(), g.Bandwidth, w.name, w.count, w.spec, w.bw)
		}
	}
}

// TestStrategyClassTakesOnlySetOverrides: a bad group naming a strategy
// runs it at the λ/w its file sets, and at the profile's defaults for
// what the file leaves unset, exactly as the simulator reads the same
// document.
func TestStrategyClassTakesOnlySetOverrides(t *testing.T) {
	doc := config.Scenario{
		Version:  config.Version,
		Name:     "strategy-overrides",
		Capacity: 10,
		Mode:     "auction",
		Groups: []config.ClientGroup{
			{Count: 2, Good: true, Lambda: 3, Window: 2},
			{Count: 4, Strategy: "flood", Aggressiveness: 2, Lambda: 7, Window: 3},
		},
	}
	gs := groupsOf(t, "-scenario", writeDoc(t, doc))
	if want := (adversary.Spec{Name: "poisson", Lambda: 3, Window: 2}); gs[0].Spec() != want {
		t.Errorf("good spec %+v, want %+v", gs[0].Spec(), want)
	}
	if want := (adversary.Spec{Name: "flood", Aggressiveness: 2, Lambda: 7, Window: 3}); gs[1].Spec() != want {
		t.Errorf("bad spec %+v, want %+v", gs[1].Spec(), want)
	}

	// Only the window set: the rate stays the profile's default.
	doc.Groups[1].Lambda = 0
	if got := groupsOf(t, "-scenario", writeDoc(t, doc))[1].Spec(); got.Lambda != 0 || got.Window != 3 {
		t.Errorf("bad spec %+v, want the profile's λ and w=3", got)
	}

	// -attack without a file: the profile's own λ/w, recorded as unset.
	if got, want := groupsOf(t, "-attack", "mimic")[1].Spec(), (adversary.Spec{Name: "mimic"}); got != want {
		t.Errorf("-attack mimic: bad spec %+v, want %+v", got, want)
	}

	// -attack over a strategy-free file keeps the file's λ/w.
	plain := config.Scenario{
		Version: config.Version, Capacity: 10, Mode: "auction",
		Groups: []config.ClientGroup{{Count: 1, Lambda: 9, Window: 4}},
	}
	got := groupsOf(t, "-attack", "onoff", "-scenario", writeDoc(t, plain))[0].Spec()
	if got.Name != "onoff" || got.Lambda != 9 || got.Window != 4 {
		t.Errorf("-attack onoff over a file: bad spec %+v, want onoff at λ=9, w=4", got)
	}
}

func TestResolveRejects(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-aggro", "2"}, "Aggressiveness 2 without a Strategy"},
		{[]string{"-attack", "shrew"}, "unknown strategy"},
		{[]string{"-transport", "udp"}, "Transport"},
		{[]string{"-bad", "7", "-scenario", "example"}, "ambiguous"},
		{[]string{"-scenario", "no-such-file"}, "scenario"},
	} {
		if _, err := resolveArgs(c.args...); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: err %v, want one mentioning %q", c.args, err, c.want)
		}
	}
}
