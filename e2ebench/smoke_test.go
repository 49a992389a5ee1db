package main

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"strconv"
	"testing"
	"time"
)

var record = flag.Bool("record", false, "rewrite testdata/sim_recorded.json (TestRecordSimSeeds)")

// benchmarkFile is the subset of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestDeclaredMetrics keeps the metric lists in step with BENCHMARK.json.
func TestDeclaredMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []metricDef, want []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(got) != len(want) {
			t.Fatalf("%s: benchmark reports %d metrics, BENCHMARK.json declares %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: benchmark %s (%s), BENCHMARK.json %s (%s)",
					kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, b.EndToEnd)
	same("per_layer", perLayer, b.PerLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %s, benchmark %s", i, w.Name, workloads[i].name)
		}
	}
}

// TestSmoke runs every workload at tiny size, untraced and traced, and
// checks that its checks pass and every named metric is present and
// finite.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped with -short")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := opts{seed: 7, measure: 400 * time.Millisecond, tiny: true, workdir: t.TempDir()}
			line, info, err := execute(w, o, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !line.Correct {
				t.Errorf("%s traced=%v: checks failed: %v", w.name, traced, info["check_failures"])
			}
			if line.Attempted < 1 {
				t.Errorf("%s traced=%v: attempted %d", w.name, traced, line.Attempted)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := line.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v", w.name, traced, d.name, m)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, want > 0", w.name, d.name, m.Value)
				}
			}
			if traced {
				var sum float64
				for _, d := range perLayer {
					if len(d.name) > 9 && d.name[len(d.name)-9:] == ".cpu_frac" {
						sum += line.Metrics[d.name].Value
					}
				}
				if sum > 1+1e-9 {
					t.Errorf("%s: cpu_frac values sum to %v", w.name, sum)
				}
			}
		}
	}
}

// TestRecordSimSeeds rewrites the recorded sim_sweep values for seeds
// 0..99 when run with -record; sim_sweep compares every run of a
// recorded seed against them.
func TestRecordSimSeeds(t *testing.T) {
	if !*record {
		t.Skip("run with -record to rewrite testdata/sim_recorded.json")
	}
	rec := recorded{VirtualSeconds: simDuration.Seconds(), Seeds: map[string]recordedSeed{}}
	for seed := int64(0); seed < 100; seed++ {
		runs, err := simRuns(seed, simDuration)
		if err != nil {
			t.Fatal(err)
		}
		r := sweepRound(runs, 0)
		rec.Seeds[strconv.FormatInt(seed, 10)] = recordedSeed{Events: r.events, Digest: r.digest}
	}
	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/sim_recorded.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
