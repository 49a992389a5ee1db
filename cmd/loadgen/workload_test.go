package main

import (
	"strings"
	"testing"
	"time"

	"speakup/configs"
	"speakup/internal/adversary"
	"speakup/internal/config"
)

// defaults are the flag defaults main declares.
var defaults = workload{
	good: class{n: 3, bw: 2e6}, bad: class{n: 3, bw: 2e6},
	aggro: 1, post: 1 << 20, dur: 30 * time.Second, transport: "http",
}

func mustResolve(t *testing.T, o workload, doc *config.Scenario, explicit ...string) workload {
	t.Helper()
	set := map[string]bool{}
	for _, name := range explicit {
		set[name] = true
	}
	w, err := resolve(o, doc, set)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func embedded(t *testing.T, name string) *config.Scenario {
	t.Helper()
	doc, err := config.Resolve(configs.FS, name)
	if err != nil {
		t.Fatal(err)
	}
	return &doc
}

// TestStrategyFreeRunsKeepTheirHash pins the config_hash of runs
// without an adversary strategy: both classes run poisson at §7.1's
// λ/w, recorded in the effective document as before.
func TestStrategyFreeRunsKeepTheirHash(t *testing.T) {
	few := defaults
	few.good.n, few.bad.n = 2, 5
	for _, c := range []struct {
		name string
		w    workload
		hash string
	}{
		{"flag defaults", mustResolve(t, defaults, nil), "5ee0bb0bb3a9"},
		{"-good 2 -bad 5", mustResolve(t, few, nil), "44b12d850cda"},
		{"-scenario fig2", mustResolve(t, defaults, embedded(t, "fig2")), "5c7fafc9e598"},
	} {
		if got := config.ShortHash(c.w.effective()); got != c.hash {
			t.Errorf("%s: config_hash %s, want %s", c.name, got, c.hash)
		}
	}
	w := mustResolve(t, defaults, nil)
	if want := (adversary.Spec{Name: "poisson", Lambda: 2, Window: 1}); w.good.spec != want {
		t.Errorf("good spec %+v, want %+v", w.good.spec, want)
	}
	if want := (adversary.Spec{Name: "poisson", Lambda: 40, Window: 20}); w.bad.spec != want {
		t.Errorf("bad spec %+v, want %+v", w.bad.spec, want)
	}
}

// TestStrategyClassTakesOnlySetOverrides: a bad group naming a strategy
// runs it at the λ/w its file sets, and at the profile's defaults for
// what the file leaves unset, exactly as the simulator reads the same
// document; the effective document records the same.
func TestStrategyClassTakesOnlySetOverrides(t *testing.T) {
	doc := &config.Scenario{
		Version: config.Version,
		Name:    "strategy-overrides",
		Groups: []config.ClientGroup{
			{Count: 2, Good: true, Lambda: 3, Window: 2},
			{Count: 4, Strategy: "flood", Aggressiveness: 2, Lambda: 7, Window: 3},
		},
	}
	w := mustResolve(t, defaults, doc)
	if want := (adversary.Spec{Name: "poisson", Lambda: 3, Window: 2}); w.good.spec != want {
		t.Errorf("good spec %+v, want %+v", w.good.spec, want)
	}
	if want := (adversary.Spec{Name: "flood", Aggressiveness: 2, Lambda: 7, Window: 3}); w.bad.spec != want {
		t.Errorf("bad spec %+v, want %+v", w.bad.spec, want)
	}
	if bad := w.effective().Groups[1]; bad.Lambda != 7 || bad.Window != 3 || bad.Strategy != "flood" {
		t.Errorf("effective bad group %+v, want flood at λ=7, w=3", bad)
	}

	// Only the window set: the rate stays the profile's default.
	doc.Groups[1].Lambda = 0
	if got := mustResolve(t, defaults, doc).bad.spec; got.Lambda != 0 || got.Window != 3 {
		t.Errorf("bad spec %+v, want the profile's λ and w=3", got)
	}

	// -attack without a file: the profile's own λ/w, recorded as unset.
	atk := defaults
	atk.attack = "mimic"
	w = mustResolve(t, atk, nil)
	if want := (adversary.Spec{Name: "mimic", Aggressiveness: 1}); w.bad.spec != want {
		t.Errorf("-attack mimic: bad spec %+v, want %+v", w.bad.spec, want)
	}
	if bad := w.effective().Groups[1]; bad.Lambda != 0 || bad.Window != 0 {
		t.Errorf("-attack mimic: effective bad group %+v records λ/w it never ran", bad)
	}

	// -attack over a strategy-free file keeps the file's λ/w.
	plain := &config.Scenario{Groups: []config.ClientGroup{{Count: 1, Lambda: 9, Window: 4}}}
	atk.attack = "onoff"
	if got := mustResolve(t, atk, plain, "attack").bad.spec; got.Name != "onoff" || got.Lambda != 9 || got.Window != 4 {
		t.Errorf("-attack onoff over a file: bad spec %+v, want onoff at λ=9, w=4", got)
	}
}

func TestResolveRejects(t *testing.T) {
	for _, c := range []struct {
		name string
		o    func(*workload)
		want string
	}{
		{"aggro without attack", func(o *workload) { o.aggro = 2 }, "-aggro"},
		{"unknown attack", func(o *workload) { o.attack = "shrew" }, "unknown strategy"},
		{"bad transport", func(o *workload) { o.transport = "udp" }, "-transport"},
	} {
		o := defaults
		c.o(&o)
		if _, err := resolve(o, nil, nil); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err %v, want one mentioning %q", c.name, err, c.want)
		}
	}
}
