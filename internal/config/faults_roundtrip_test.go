package config_test

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"speakup/internal/config"
	"speakup/internal/faults"
)

// TestFaultsSectionRoundTrip exercises every fault kind and the client
// retry knobs through the full document <-> scenario.Config cycle:
// strict decode, canonical re-encode, validate, and lossless
// conversion both ways.
func TestFaultsSectionRoundTrip(t *testing.T) {
	src := `{
  "version": 1,
  "name": "faulty",
  "seed": 7,
  "duration": "30s",
  "capacity": 30,
  "mode": "auction",
  "groups": [
    {
      "name": "good",
      "count": 5,
      "good": true,
      "retry_budget": 3,
      "retry_base": "250ms",
      "retry_cap": "2s",
      "deadline": "10s"
    },
    {
      "name": "bad",
      "count": 5
    }
  ],
  "bottlenecks": [
    {
      "rate": 5000000,
      "delay": "1ms"
    }
  ],
  "faults": [
    {
      "kind": "link-loss",
      "target": "trunk",
      "at": "2s",
      "duration": "5s",
      "magnitude": 0.25
    },
    {
      "kind": "link-jitter",
      "target": "access:good",
      "at": "3s",
      "duration": "4s",
      "magnitude": 0.05,
      "seed": 9
    },
    {
      "kind": "partition",
      "target": "bottleneck:1",
      "at": "8s",
      "duration": "2s"
    },
    {
      "kind": "origin-stall",
      "at": "12s",
      "duration": "3s"
    },
    {
      "kind": "origin-crash",
      "at": "20s",
      "duration": "1s"
    }
  ]
}
`
	doc, err := config.Decode(strings.NewReader(src))
	if err != nil {
		t.Fatalf("strict decode: %v", err)
	}
	if got := config.Encode(doc); string(got) != src {
		t.Errorf("not canonical:\n--- source ---\n%s--- re-encoded ---\n%s", src, got)
	}
	if err := doc.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	sc, err := doc.Config()
	if err != nil {
		t.Fatalf("to scenario.Config: %v", err)
	}
	wantPlan := faults.Plan{
		{Kind: faults.LinkLoss, Target: "trunk", At: 2 * time.Second, Duration: 5 * time.Second, Magnitude: 0.25},
		{Kind: faults.LinkJitter, Target: "access:good", At: 3 * time.Second, Duration: 4 * time.Second, Magnitude: 0.05, Seed: 9},
		{Kind: faults.Partition, Target: "bottleneck:1", At: 8 * time.Second, Duration: 2 * time.Second},
		{Kind: faults.OriginStall, At: 12 * time.Second, Duration: 3 * time.Second},
		{Kind: faults.OriginCrash, At: 20 * time.Second, Duration: time.Second},
	}
	if !reflect.DeepEqual(sc.Faults, wantPlan) {
		t.Errorf("plan mismatch:\ngot:  %+v\nwant: %+v", sc.Faults, wantPlan)
	}
	g := sc.Groups[0]
	if g.RetryBudget != 3 || g.RetryBase != 250*time.Millisecond ||
		g.RetryCap != 2*time.Second || g.Deadline != 10*time.Second {
		t.Errorf("retry knobs lost: %+v", g)
	}
	back := config.FromScenario(sc)
	back.Name = doc.Name
	if !reflect.DeepEqual(back, doc) {
		t.Errorf("lossy round trip:\ndecoded:    %+v\nre-derived: %+v", doc, back)
	}
	if h1, h2 := config.Hash(doc), config.Hash(back); h1 != h2 {
		t.Errorf("hash not stable: %s vs %s", h1, h2)
	}
}

// TestFaultsValidateRejects checks scenario-shape errors surface
// through the document layer: bad targets, bad magnitudes and unknown
// kinds.
func TestFaultsValidateRejects(t *testing.T) {
	base := `{
  "version": 1,
  "capacity": 30,
  "mode": "%s",
  "groups": [
    {
      "name": "good",
      "count": 5,
      "good": true
    }
  ],
  "faults": [
    %s
  ]
}
`
	cases := []struct {
		mode, fault, want string
	}{
		{"auction", `{"kind": "link-loss", "target": "access:nobody", "duration": "1s", "magnitude": 0.5}`, "no client group"},
		{"auction", `{"kind": "link-loss", "target": "trunk", "duration": "1s", "magnitude": 2}`, "drop probability"},
		{"auction", `{"kind": "sharknado", "duration": "1s"}`, "unknown kind"},
	}
	for i, tc := range cases {
		src := strings.NewReader(strings.ReplaceAll(
			strings.Replace(base, "%s", tc.mode, 1), "%s", tc.fault))
		doc, err := config.Decode(src)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		err = doc.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("case %d: err = %v, want mention of %q", i, err, tc.want)
		}
	}
}
