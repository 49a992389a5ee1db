package config

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func sec(n int) Duration { return Duration(time.Duration(n) * time.Second) }

// TestMergeThinner pins the POST patch semantics the fleet controller
// relies on: non-zero patch fields win, zero fields keep base.
func TestMergeThinner(t *testing.T) {
	base := Thinner{OrphanTimeout: sec(10), InactivityTimeout: sec(30), SweepInterval: sec(1), Shards: 8}
	patch := Thinner{OrphanTimeout: sec(4), SweepInterval: sec(2)}
	got := MergeThinner(base, patch)
	want := Thinner{OrphanTimeout: sec(4), InactivityTimeout: sec(30), SweepInterval: sec(2), Shards: 8}
	if got != want {
		t.Fatalf("MergeThinner = %+v, want %+v", got, want)
	}
	if got := MergeThinner(base, Thinner{}); got != base {
		t.Fatalf("empty patch changed base: %+v", got)
	}
}

// TestHashThinner checks the hash is stable, order-free (it hashes a
// canonical encoding), and sensitive to every field.
func TestHashThinner(t *testing.T) {
	a := Thinner{OrphanTimeout: sec(10), InactivityTimeout: sec(30), SweepInterval: sec(1), Shards: 8}
	if HashThinner(a) != HashThinner(a) {
		t.Fatal("hash not deterministic")
	}
	if len(HashThinner(a)) != 64 {
		t.Fatalf("hash length: %d", len(HashThinner(a)))
	}
	mutations := []Thinner{
		{OrphanTimeout: sec(9), InactivityTimeout: sec(30), SweepInterval: sec(1), Shards: 8},
		{OrphanTimeout: sec(10), InactivityTimeout: sec(29), SweepInterval: sec(1), Shards: 8},
		{OrphanTimeout: sec(10), InactivityTimeout: sec(30), SweepInterval: sec(2), Shards: 8},
		{OrphanTimeout: sec(10), InactivityTimeout: sec(30), SweepInterval: sec(1), Shards: 16},
	}
	for i, m := range mutations {
		if HashThinner(m) == HashThinner(a) {
			t.Errorf("mutation %d did not move the hash", i)
		}
	}
}

// TestThinnerStatusRoundTrip checks the /control/config response shape:
// flattened thinner fields plus config_hash, decodable back into both
// the status struct and (via DecodeThinner) a plain patch.
func TestThinnerStatusRoundTrip(t *testing.T) {
	cfg := Thinner{OrphanTimeout: sec(10), InactivityTimeout: sec(30), SweepInterval: sec(1), Shards: 8}
	st := StatusOf(cfg)
	if st.ConfigHash != HashThinner(cfg) {
		t.Fatal("StatusOf hash mismatch")
	}
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"config_hash"`) || !strings.Contains(string(b), `"orphan_timeout"`) {
		t.Fatalf("status encoding not flattened: %s", b)
	}
	var back ThinnerStatus
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Thinner != cfg || back.ConfigHash != st.ConfigHash {
		t.Fatalf("round trip: %+v", back)
	}
	// A captured GET body POSTs back as a restore: DecodeThinner
	// tolerates (and ignores) config_hash.
	patch, err := DecodeThinner(strings.NewReader(string(b)))
	if err != nil {
		t.Fatalf("DecodeThinner on a status body: %v", err)
	}
	if patch != cfg {
		t.Fatalf("restore patch = %+v, want %+v", patch, cfg)
	}
	// Strictness survives: a typoed knob still fails loudly.
	if _, err := DecodeThinner(strings.NewReader(`{"orphan_timeut":"1s"}`)); err == nil {
		t.Fatal("typoed field accepted")
	}
}
