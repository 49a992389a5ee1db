package exp

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"speakup/internal/adversary"
)

// goldenOpts pins the adversary sweep at a short, fixed scale: the
// golden file and the determinism test both use it so the two checks
// guard the same bytes.
var goldenOpts = Opts{Duration: 6 * time.Second, Seed: 1}

var updateGolden = flag.Bool("update-golden", false,
	"rewrite the golden files under testdata/golden (adversary_frontier.txt, theorem.txt)")

// TestAdversarySweepDeterminism reruns the robustness-frontier sweep
// serially and with 8 workers: every point and frontier row must be
// bit-identical. This is the adversary counterpart of
// TestWorkersDoNotChangeResults, and it additionally covers the
// cohort state (shared budget, coupon slots) being per-run.
func TestAdversarySweepDeterminism(t *testing.T) {
	serialOpts, parallelOpts := goldenOpts, goldenOpts
	serialOpts.Workers = 1
	parallelOpts.Workers = 8
	serial := Adversary(serialOpts)
	parallel := Adversary(parallelOpts)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("adversary sweep differs by worker count:\nserial:   %+v\nparallel: %+v",
			serial.Points, parallel.Points)
	}
}

// TestAdversaryFrontierGolden pins the rendered grid and frontier
// tables byte-for-byte. Regenerate (only when an intentional model
// change lands) with:
//
//	go test ./internal/exp -run TestAdversaryFrontierGolden -update-golden
func TestAdversaryFrontierGolden(t *testing.T) {
	skipIfShort(t)
	r := Adversary(goldenOpts)
	got := r.Table().String() + "\n" + r.FrontierTable().String()
	path := filepath.Join("testdata", "golden", "adversary_frontier.txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden): %v", err)
	}
	if got != string(want) {
		t.Errorf("robustness frontier diverged from golden\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestAdversaryShape asserts the frontier's qualitative claims at a
// longer scale: every registered strategy is present, and no strategy
// at equal bandwidth (ratio 1, aggro 1) pushes the good clients far
// below their bandwidth-proportional half.
func TestAdversaryShape(t *testing.T) {
	skipIfShort(t)
	r := Adversary(short)
	names := adversary.Names()
	wantCells := len(names) * len(adversaryAggros) * len(adversaryRatios)
	if len(r.Points) != wantCells {
		t.Fatalf("points = %d, want %d", len(r.Points), wantCells)
	}
	if len(r.Frontier) != len(names) {
		t.Fatalf("frontier rows = %d, want %d", len(r.Frontier), len(names))
	}
	for _, p := range r.Points {
		if p.Aggro == 1 && p.BWRatio == 1 {
			if p.GoodAllocation < 0.3 {
				t.Errorf("%s at equal bandwidth: good allocation %.3f, want >= 0.3",
					p.Strategy, p.GoodAllocation)
			}
		}
	}
	for _, f := range r.Frontier {
		if f.Worst <= 0 || f.Worst > 1 {
			t.Errorf("%s: worst frac good served %.3f out of range", f.Strategy, f.Worst)
		}
		// Doubling the attackers' bandwidth can halve the good share,
		// but no strategy should collapse it entirely.
		if f.Worst < 0.15 {
			t.Errorf("%s: worst-case good service %.3f — robustness frontier broken", f.Strategy, f.Worst)
		}
	}
	// The defector must pay less than the honest flood at every cell.
	paid := map[string]float64{}
	for _, p := range r.Points {
		if p.Aggro == 1 && p.BWRatio == 1 {
			paid[p.Strategy] = p.BadPaidMB
		}
	}
	if paid["defector"] >= paid["poisson"] {
		t.Errorf("defector paid %.1f MB >= honest poisson %.1f MB", paid["defector"], paid["poisson"])
	}
}
