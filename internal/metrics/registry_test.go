package metrics

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestDeclsWellFormed checks the declaration itself: every JSON key
// and Prometheus name is unique, each metric has a known kind, a unit
// and help text, and counters follow the _total convention.
func TestDeclsWellFormed(t *testing.T) {
	keys, names := map[string]bool{}, map[string]bool{}
	for _, d := range Decls() {
		if d.JSON == "" && d.Prom == "" {
			t.Errorf("%+v: neither a JSON key nor a Prometheus name", d)
		}
		if d.JSON != "" {
			if keys[d.JSON] {
				t.Errorf("JSON key %q declared twice", d.JSON)
			}
			keys[d.JSON] = true
		}
		if d.Prom != "" {
			if names[d.Prom] {
				t.Errorf("Prometheus name %q declared twice", d.Prom)
			}
			names[d.Prom] = true
			if !strings.HasPrefix(d.Prom, "speakup_") {
				t.Errorf("%s: missing the speakup_ prefix", d.Prom)
			}
		}
		switch d.Kind {
		case "counter":
			if d.Prom != "" && !strings.HasSuffix(d.Prom, "_total") {
				t.Errorf("counter %s does not end in _total", d.Prom)
			}
		case "gauge", "histogram":
		default:
			t.Errorf("%+v: unknown kind %q", d, d.Kind)
		}
		if d.Help == "" || d.Unit == "" {
			t.Errorf("%+v: empty help or unit", d)
		}
	}
}

// TestSnapshotJSONRoundTrip gives every streamed field of a Snapshot a
// distinct value and checks the /telemetry encoding carries each back.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	var want Snapshot
	n := 0
	visit(reflect.ValueOf(&want).Elem(), func(d Decl, v reflect.Value) {
		if d.JSON == "" {
			return
		}
		n++
		switch v.Kind() {
		case reflect.Int, reflect.Int64:
			v.SetInt(int64(n))
		case reflect.Uint64:
			v.SetUint(uint64(n))
		case reflect.Float64:
			v.SetFloat(float64(n) + 0.5)
		}
	})
	b, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(b, &fields); err != nil {
		t.Fatal(err)
	}
	if len(fields) != n {
		t.Errorf("encoded %d keys for %d declared ones: %s", len(fields), n, b)
	}
	var got Snapshot
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, want)
	}
}

// TestTotalsAdd checks the fleet fold sums every field.
func TestTotalsAdd(t *testing.T) {
	a := Totals{Counters: Counters{Admitted: 1, PaidBytes: 10}, Wire: Wire{WireFrames: 2}, IngestMbps: 0.5, Contenders: 3}
	b := Totals{Counters: Counters{Admitted: 4, PaidBytes: 20}, Wire: Wire{WireFrames: 5}, IngestMbps: 1.25, Contenders: 6}
	a.Add(&b)
	want := Totals{Counters: Counters{Admitted: 5, PaidBytes: 30}, Wire: Wire{WireFrames: 7}, IngestMbps: 1.75, Contenders: 9}
	if a != want {
		t.Errorf("sum = %+v, want %+v", a, want)
	}
}

// TestRegistrySnapshot records one of each event and reads it back.
func TestRegistrySnapshot(t *testing.T) {
	var r Registry
	r.RecordAdmit(0, true)
	r.RecordAuction(7, 300)
	r.RecordAdmit(300, false)
	r.RecordEvict(40)
	r.RecordShed()
	r.RecordBrownout(1)
	r.RecordWireConn(1)
	r.RecordWireRead(3, 900)
	want := Snapshot{Gauges: Gauges{GoingPrice: 300, LastWinner: 7, Health: 1}}
	want.Counters = Counters{Admitted: 2, AdmittedDirect: 1, Auctions: 1, Evicted: 1, Shed: 1,
		Brownouts: 1, WastedBytes: 40, PaidBytes: 300}
	want.Wire = Wire{WireConns: 1, WireFrames: 3, WireIngestBytes: 900}
	if got := r.Snapshot(); got != want {
		t.Errorf("snapshot:\n got %+v\nwant %+v", got, want)
	}
}

// TestRecordDoesNotAllocate guards the hot paths: the wire listener
// records once per socket read, the thinner once per admission.
func TestRecordDoesNotAllocate(t *testing.T) {
	var r Registry
	if n := testing.AllocsPerRun(100, func() {
		r.RecordWireRead(4, 4096)
		r.RecordAdmit(100, false)
		r.RecordEvict(5)
	}); n != 0 {
		t.Errorf("recording allocates %v times per run", n)
	}
}

// TestREADMEListsEveryMetric keeps the README's metric table in step
// with the declaration.
func TestREADMEListsEveryMetric(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Decls() {
		if d.Prom != "" && !strings.Contains(string(readme), "`"+d.Prom+"`") {
			t.Errorf("README.md does not list %s", d.Prom)
		}
		if d.JSON != "" && !strings.Contains(string(readme), "`"+d.JSON+"`") {
			t.Errorf("README.md does not list the key %s", d.JSON)
		}
	}
}
