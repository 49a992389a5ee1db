package exp

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"speakup/configs"
	"speakup/internal/appsim"
	"speakup/internal/config"
	"speakup/internal/core"
	"speakup/internal/scenario"
)

// updateConfigs regenerates configs/*.json driver bases from the
// legacy literals below:
//
//	go test ./internal/exp -run TestDriverBases -update-configs
//
// then rebuild so the embedded file set picks the files up.
var updateConfigs = flag.Bool("update-configs", false, "rewrite configs/ driver bases from the legacy Go literals")

// driverBase pins one configs/ file to the Go literal it replaced in a
// figure driver. Cfg carries zero Seed and Duration: drivers stamp
// both from Opts after loading, so they are not part of the base.
type driverBase struct {
	Name  string
	Notes string
	Cfg   scenario.Config
}

// legacyBases is the pre-refactor scenario of every figure driver,
// verbatim. Grid axes the drivers still vary per cell (counts, modes,
// capacities, sizes) are pinned here at each driver's first cell or
// canonical operating point.
func legacyBases() map[string]driverBase {
	easy := 50 * time.Millisecond
	return map[string]driverBase{
		"fig2.json": {
			Name:  "fig2",
			Notes: "Figure 2 base: 50 clients x 2 Mbit/s at f=0.5, c=100. The driver sweeps the good count 5..45 and toggles mode off per cell.",
			Cfg: scenario.Config{
				Capacity: 100, Mode: appsim.ModeAuction, Groups: equalMix(25),
			},
		},
		"fig345.json": {
			Name:  "fig345",
			Notes: "Figures 3-5 base: 25 good / 25 bad (G=B=50 Mbit/s), c=100 (c_id). The driver sweeps c in {50,100,200} and toggles mode off per cell.",
			Cfg: scenario.Config{
				Capacity: 100, Mode: appsim.ModeAuction, Groups: equalMix(25),
			},
		},
		"sec74.json": {
			Name:  "sec74",
			Notes: "Sec 7.4 base: the standard G=B mix at c_id=100. The capacity sweep raises c; the window sweep sets the bad clients' w per cell.",
			Cfg: scenario.Config{
				Capacity: 100, Mode: appsim.ModeAuction, Groups: equalMix(25),
			},
		},
		"fig6.json": {
			Name:  "fig6",
			Notes: "Figure 6: 5 bandwidth categories of 10 good LAN clients (0.5i Mbit/s), c=10. Runs as-is; the driver adds no overrides.",
			Cfg: scenario.Config{
				Capacity: 10, Mode: appsim.ModeAuction,
				Groups: []scenario.ClientGroup{
					{Name: categoryName(1), Count: 10, Good: true, Bandwidth: 0.5e6},
					{Name: categoryName(2), Count: 10, Good: true, Bandwidth: 1.0e6},
					{Name: categoryName(3), Count: 10, Good: true, Bandwidth: 1.5e6},
					{Name: categoryName(4), Count: 10, Good: true, Bandwidth: 2.0e6},
					{Name: categoryName(5), Count: 10, Good: true, Bandwidth: 2.5e6},
				},
			},
		},
		"fig7.json": {
			Name:  "fig7",
			Notes: "Figure 7: 5 RTT categories (one-way access delay 50i ms), all good, c=10. The all-bad cell flips every group's Good flag.",
			Cfg: scenario.Config{
				Capacity: 10, Mode: appsim.ModeAuction,
				Groups: []scenario.ClientGroup{
					{Name: categoryName(1), Count: 10, Good: true, LinkDelay: 50 * time.Millisecond},
					{Name: categoryName(2), Count: 10, Good: true, LinkDelay: 100 * time.Millisecond},
					{Name: categoryName(3), Count: 10, Good: true, LinkDelay: 150 * time.Millisecond},
					{Name: categoryName(4), Count: 10, Good: true, LinkDelay: 200 * time.Millisecond},
					{Name: categoryName(5), Count: 10, Good: true, LinkDelay: 250 * time.Millisecond},
				},
			},
		},
		"fig8.json": {
			Name:  "fig8",
			Notes: "Figure 8: 30 clients behind a shared 40 Mbit/s bottleneck plus 10+10 direct, c=50, at the 5g/25b split. The driver sweeps the split counts.",
			Cfg: scenario.Config{
				Capacity: 50, Mode: appsim.ModeAuction,
				Bottlenecks: []scenario.Bottleneck{{Rate: 40e6, Delay: 250 * time.Microsecond}},
				Groups: []scenario.ClientGroup{
					{Name: "bn-good", Count: 5, Good: true, Bottleneck: 1},
					{Name: "bn-bad", Count: 25, Good: false, Bottleneck: 1},
					{Name: "direct-good", Count: 10, Good: true},
					{Name: "direct-bad", Count: 10, Good: false},
				},
			},
		},
		"fig9.json": {
			Name:  "fig9",
			Notes: "Figure 9: 10 good speak-up clients share a 1 Mbit/s, 100 ms bottleneck with bystander H downloading a 1 KB file, c=2. The driver sweeps the file size and toggles mode off.",
			Cfg: scenario.Config{
				Capacity: 2, Mode: appsim.ModeAuction,
				Bottlenecks: []scenario.Bottleneck{{Rate: 1e6, Delay: 100 * time.Millisecond}},
				Groups: []scenario.ClientGroup{
					{Name: "bn-good", Count: 10, Good: true, Bottleneck: 1},
				},
				Bystander: &scenario.Bystander{FileSize: 1000, MaxDownloads: 100},
			},
		},
		"variants.json": {
			Name:  "variants",
			Notes: "Ablation A1 base: the standard mix at c=100 under the auction. The driver compares modes off, random-drop, auction.",
			Cfg: scenario.Config{
				Capacity: 100, Mode: appsim.ModeAuction, Groups: equalMix(25),
			},
		},
		"hetero.json": {
			Name:  "hetero",
			Notes: "Ablation A3 base: attackers send 10x-hard requests (10 good / 10 bad, c=20 easy-req/s) under the naive auction. The quantum cell switches mode to hetero with tau=50ms.",
			Cfg: scenario.Config{
				Capacity: 20, Mode: appsim.ModeAuction,
				Groups: []scenario.ClientGroup{
					{Name: "good", Count: 10, Good: true, Work: easy},
					{Name: "bad", Count: 10, Good: false, Work: 10 * easy},
				},
			},
		},
		"postsize.json": {
			Name:  "postsize",
			Notes: "Ablation A4 base: the standard mix at c=100. The driver sweeps the payment POST size via the sizes section.",
			Cfg: scenario.Config{
				Capacity: 100, Mode: appsim.ModeAuction, Groups: equalMix(25),
			},
		},
		"parconns.json": {
			Name:  "parconns",
			Notes: "Ablation A5 base: a gamer and a fair single-connection rival share a 2 Mbit/s link, plus one direct good client, c=2, at n=1 ephemeral channels. The driver rewrites the gamer group per cell.",
			Cfg: scenario.Config{
				Capacity: 2, Mode: appsim.ModeAuction,
				Bottlenecks: []scenario.Bottleneck{{Rate: 2e6, Delay: time.Millisecond}},
				Groups: []scenario.ClientGroup{
					{Name: "bn-fair", Count: 1, Good: true, Bottleneck: 1, Lambda: 10, Window: 1, Bandwidth: 10e6},
					{Name: "bn-gamer", Count: 1, Good: false, Bottleneck: 1, Lambda: 10, Window: 1, PayConns: 1, Bandwidth: 10e6},
					{Name: "direct-good", Count: 1, Good: true, Lambda: 10, Window: 1},
				},
			},
		},
		"sec81.json": {
			Name:  "sec81",
			Notes: "Sec 8.1 base: 25 good / 25 dumb bots (λ=40) under profiling with a perfect profile (baseline 2, slack 3x), c=100. The driver swaps defenses and the smart-bot group per cell.",
			Cfg: scenario.Config{
				Capacity: 100, Mode: appsim.ModeProfiling,
				Groups: []scenario.ClientGroup{
					{Name: "good", Count: 25, Good: true},
					{Name: "bots", Count: 25, Good: false},
				},
				Profiler: core.ProfilerConfig{BaselineRate: 2, Slack: 3},
			},
		},
		"flashcrowd.json": {
			Name:  "flashcrowd",
			Notes: "Sec 9 flash crowd: 50 good clients at λ=10, w=2 against c=100 — a 5x all-good overload. The driver compares mode off vs auction.",
			Cfg: scenario.Config{
				Capacity: 100, Mode: appsim.ModeAuction,
				Groups: []scenario.ClientGroup{
					{Name: "crowd", Count: 50, Good: true, Lambda: 10, Window: 2},
				},
			},
		},
		"adversary.json": {
			Name:  "adversary",
			Notes: "Adversary-sweep base: 10 good clients vs 10 strategy-driven attackers at c=30, under the ideal provisioning c_id=40. The driver rewrites the attacker group per (strategy, aggressiveness, bandwidth-ratio) cell.",
			Cfg: scenario.Config{
				Capacity: 30, Mode: appsim.ModeAuction,
				Groups: []scenario.ClientGroup{
					{Name: "good", Count: 10, Good: true},
					{Name: "poisson", Count: 10, Strategy: "poisson", Aggressiveness: 1, Bandwidth: 2e6},
				},
			},
		},
	}
}

// TestDriverBases pins every driver base file against the legacy
// literal it replaced: the embedded file must decode to exactly the
// scenario.Config the pre-refactor driver built. With -update-configs
// it instead rewrites the files from the literals.
func TestDriverBases(t *testing.T) {
	for file, base := range legacyBases() {
		if *updateConfigs {
			doc := config.FromScenario(base.Cfg)
			doc.Name = base.Name
			doc.Notes = base.Notes
			path := filepath.Join("..", "..", "configs", file)
			if err := os.WriteFile(path, config.Encode(doc), 0o644); err != nil {
				t.Fatalf("%s: %v", file, err)
			}
			t.Logf("wrote %s", path)
			continue
		}
		doc, err := config.LoadFS(configs.FS, file)
		if err != nil {
			t.Errorf("%s: %v (regenerate with -update-configs)", file, err)
			continue
		}
		if doc.Name != base.Name {
			t.Errorf("%s: name = %q, want %q", file, doc.Name, base.Name)
		}
		got, err := doc.Config()
		if err != nil {
			t.Errorf("%s: %v", file, err)
			continue
		}
		if !reflect.DeepEqual(got, base.Cfg) {
			t.Errorf("%s: decoded config differs from the legacy driver literal\n got: %+v\nwant: %+v", file, got, base.Cfg)
		}
	}
}

// TestBaseStampsOpts checks Opts.base applies seed and duration over
// the loaded file.
func TestBaseStampsOpts(t *testing.T) {
	if *updateConfigs {
		t.Skip("regenerating configs")
	}
	o := Opts{Seed: 7, Duration: 5 * time.Second}
	cfg := o.base("fig345.json")
	if cfg.Seed != 7 || cfg.Duration != 5*time.Second {
		t.Fatalf("base did not stamp Opts: seed=%d duration=%v", cfg.Seed, cfg.Duration)
	}
	if cfg.Capacity != 100 || len(cfg.Groups) != 2 {
		t.Fatalf("unexpected base content: %+v", cfg)
	}
}

// TestCellIsolation checks cell's copies are deep enough that grid
// cells sharing a base never share mutable memory.
func TestCellIsolation(t *testing.T) {
	if *updateConfigs {
		t.Skip("regenerating configs")
	}
	base := scenario.Config{
		Capacity: 1,
		Groups:   []scenario.ClientGroup{{Name: "g", Count: 1, Good: true}},
		Bottlenecks: []scenario.Bottleneck{
			{Rate: 1e6},
		},
		Bystander: &scenario.Bystander{FileSize: 10},
	}
	mutated := cell(base, func(c *scenario.Config) {
		c.Groups[0].Count = 99
		c.Bottlenecks[0].Rate = 5e6
		c.Bystander.FileSize = 77
		c.Mode = appsim.ModeAuction
	})
	if base.Groups[0].Count != 1 || base.Bottlenecks[0].Rate != 1e6 || base.Bystander.FileSize != 10 || base.Mode != appsim.ModeOff {
		t.Fatalf("cell mutated the shared base: %+v", base)
	}
	if mutated.Groups[0].Count != 99 || mutated.Bystander.FileSize != 77 {
		t.Fatalf("cell dropped the override: %+v", mutated)
	}
}
