package metrics

import (
	"reflect"
	"strings"
	"sync/atomic"
)

// The thinner's observables are declared once, here, as tagged struct
// fields. A field's tags are its whole declaration:
//
//	json  its key in the /telemetry line ("-": not streamed)
//	prom  its Prometheus family name (absent: not exported)
//	kind  counter, gauge or histogram
//	unit  the unit of the value as recorded
//	help  the Prometheus HELP text
//
// Every output is rendered from these tags: encoding/json writes the
// /telemetry line, WritePrometheus walks them for /metrics, Totals.Add
// folds a fleet, and Decls lists them for tests and documentation. A
// new metric is one field here plus the Record call that feeds it.
//
// The groups the Registry records are generic in their number types:
// the value form (uint64, int64) is what a Snapshot carries, and the
// atomic form (atomic.Uint64, atomic.Int64) is what the Registry adds
// into, so recording is one typed atomic operation with no reflection.
// Reflection runs only when a snapshot is read or rendered.

type counters[U, I any] struct {
	Admitted       U `json:"admitted" prom:"speakup_admitted_total" kind:"counter" unit:"requests" help:"Requests handed to the origin (direct + auction wins)."`
	AdmittedDirect U `json:"admitted_direct" prom:"speakup_admitted_direct_total" kind:"counter" unit:"requests" help:"Admissions with no auction (origin was free)."`
	Auctions       U `json:"auctions" prom:"speakup_auctions_total" kind:"counter" unit:"auctions" help:"Auctions held."`
	Evicted        U `json:"evicted" prom:"speakup_evicted_total" kind:"counter" unit:"requests" help:"Payment channels terminated by timeout."`
	Shed           U `json:"shed" prom:"speakup_shed_total" kind:"counter" unit:"requests" help:"Arrivals refused during origin brownouts."`
	Brownouts      U `json:"brownouts" prom:"speakup_brownouts_total" kind:"counter" unit:"events" help:"Times the origin-health ladder left ok."`
	WastedBytes    I `json:"wasted_bytes" prom:"speakup_wasted_bytes_total" kind:"counter" unit:"bytes" help:"Payment bytes forfeited by evicted channels."`
	PaidBytes      I `json:"paid_bytes" prom:"speakup_paid_bytes_total" kind:"counter" unit:"bytes" help:"Payment bytes of auction winners (the prices)."`
}

type gauges[U, I any] struct {
	GoingPrice I `json:"going_price_bytes" prom:"speakup_going_price_bytes" kind:"gauge" unit:"bytes" help:"Winning bid of the most recent auction."`
	LastWinner U `json:"last_winner_id" prom:"speakup_last_winner_id" kind:"gauge" unit:"id" help:"Request id of the most recent auction winner."`
	Health     I `json:"health" prom:"speakup_health" kind:"gauge" unit:"state" help:"Origin-health ladder state (0 ok, 1 stalled, 2 recovering)."`
}

type wireStats[U, I any] struct {
	WireConns       I `json:"wire_conns" prom:"speakup_wire_conns" kind:"gauge" unit:"connections" help:"Open binary payment-transport connections."`
	WireFrames      U `json:"wire_frames" prom:"speakup_wire_frames_total" kind:"counter" unit:"frames" help:"Frames decoded by the wire listener."`
	WireIngestBytes I `json:"wire_ingest_bytes" prom:"speakup_wire_ingest_bytes_total" kind:"counter" unit:"bytes" help:"Payment bytes credited over the wire transport."`
	// WireOverflows is reported in JSON only once nonzero, so healthy
	// fronts keep their pinned /stats and /telemetry key sets.
	WireOverflows U `json:"wire_overflows,omitempty" kind:"counter" unit:"connections" help:"Wire connections dropped because their client stopped draining its event queue."`
}

// Counters is the thinner's tally: what every admission policy counts,
// in the simulator and the live front alike (core.Stats is this type).
type Counters = counters[uint64, int64]

// Gauges are the auction's last-value observables: the going rate
// (§3.3: "the winning bid from the most recent auction", 0 before any),
// its winner, and the origin-health ladder (core.HealthState numbering).
type Gauges = gauges[uint64, int64]

// Wire is the binary payment transport's slice of the ingest.
// IngestBytes minus WireIngestBytes is the HTTP share.
type Wire = wireStats[uint64, int64]

// Totals is what a fleet view sums across fronts: the thinner's
// counters, the wire slice, and the front's ingest and table sizes.
type Totals struct {
	Counters
	Wire
	IngestBytes  int64   `json:"ingest_bytes" prom:"speakup_ingest_bytes_total" kind:"counter" unit:"bytes" help:"Payment bytes credited across all transports."`
	IngestMbps   float64 `json:"ingest_mbps" kind:"gauge" unit:"Mbit/s" help:"Mean ingest rate since the front started."`
	OpenChannels int     `json:"open_channels" prom:"speakup_open_channels" kind:"gauge" unit:"channels" help:"Open payment channels, orphans included."`
	Contenders   int     `json:"contenders" prom:"speakup_contenders" kind:"gauge" unit:"requests" help:"Eligible auction contenders."`
}

// Front holds the point-in-time deployment gauges only a live front
// can see. WritePrometheus renders a unit of ms in seconds, the
// Prometheus base unit.
type Front struct {
	UptimeMS   int64  `json:"uptime_ms" prom:"speakup_uptime_seconds" kind:"gauge" unit:"ms" help:"Seconds since the front started."`
	Served     uint64 `json:"-" prom:"speakup_served_total" kind:"counter" unit:"requests" help:"Requests the origin completed."`
	GOMAXPROCS int    `json:"-" prom:"speakup_gomaxprocs" kind:"gauge" unit:"threads" help:"The front's scheduler width."`
}

// Snapshot is one telemetry observation — the NDJSON line shape of
// thinnerd's /telemetry stream. The registry fills Counters, Gauges and
// Wire; the snapshotting side (the live front) fills the rest, which
// the registry cannot see.
type Snapshot struct {
	Totals
	Gauges
	Front
}

// Add sums o into t, field by field.
func (t *Totals) Add(o *Totals) { add(reflect.ValueOf(t).Elem(), reflect.ValueOf(o).Elem()) }

func add(dst, src reflect.Value) {
	switch dst.Kind() {
	case reflect.Struct:
		for i := range dst.NumField() {
			add(dst.Field(i), src.Field(i))
		}
	case reflect.Int, reflect.Int64:
		dst.SetInt(dst.Int() + src.Int())
	case reflect.Uint64:
		dst.SetUint(dst.Uint() + src.Uint())
	case reflect.Float64:
		dst.SetFloat(dst.Float() + src.Float())
	}
}

// Decl is one declared metric, read from its field's tags.
type Decl struct {
	JSON, Prom, Kind, Unit, Help string
}

// Decls lists every declared metric: the Snapshot's fields, then the
// latency histograms.
func Decls() []Decl {
	var ds []Decl
	collect := func(d Decl, _ reflect.Value) { ds = append(ds, d) }
	visit(reflect.ValueOf(&Snapshot{}).Elem(), collect)
	visit(reflect.ValueOf(&LatencyHists{}).Elem(), collect)
	return ds
}

// visit calls fn on each declared field of the struct v, descending
// into embedded groups.
func visit(v reflect.Value, fn func(Decl, reflect.Value)) {
	t := v.Type()
	for i := range t.NumField() {
		f := t.Field(i)
		if f.Anonymous {
			visit(v.Field(i), fn)
			continue
		}
		key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if key == "-" {
			key = ""
		}
		fn(Decl{JSON: key, Prom: f.Tag.Get("prom"), Kind: f.Tag.Get("kind"),
			Unit: f.Tag.Get("unit"), Help: f.Tag.Get("help")}, v.Field(i))
	}
}

// Registry accumulates thinner activity for telemetry. It is each
// admission policy's only tally: every core policy owns one — in the
// simulator and in the live front alike — and the live front's /stats,
// /telemetry and /metrics endpoints all read it.
//
// Recording runs on the policy's control path (and the wire listener's
// read loops) while snapshots are taken from arbitrary telemetry
// goroutines; every value is an atomic. Counters are monotone; the
// gauges hold last values.
type Registry struct {
	c counters[atomic.Uint64, atomic.Int64]
	g gauges[atomic.Uint64, atomic.Int64]
	w wireStats[atomic.Uint64, atomic.Int64]

	// lat holds the request-lifecycle latency histograms; /metrics
	// renders them as Prometheus histograms.
	lat LatencyHists
}

// Latency returns the registry's request-lifecycle histograms. The
// thinner core observes auction latency here; the trace layer
// (internal/trace) feeds the sampled wait/credit-gap/evict ones.
func (r *Registry) Latency() *LatencyHists { return &r.lat }

// Health returns the health gauge (core.HealthState numbering).
func (r *Registry) Health() int64 { return r.g.Health.Load() }

// RecordAuction counts one auction won by id with a bid of paid bytes
// (under §5, one quantum's auction that gave id the server).
func (r *Registry) RecordAuction(id uint64, paid int64) {
	r.c.Auctions.Add(1)
	r.g.GoingPrice.Store(paid)
	r.g.LastWinner.Store(id)
}

// RecordAdmit counts one admission at a price of paid bytes. direct
// marks an admission to a free origin, with no auction and usually no
// payment.
func (r *Registry) RecordAdmit(paid int64, direct bool) {
	r.c.Admitted.Add(1)
	r.c.PaidBytes.Add(paid)
	if direct {
		r.c.AdmittedDirect.Add(1)
	}
}

// RecordEvict counts one ended payment channel or refused request;
// paid is the balance it forfeits.
func (r *Registry) RecordEvict(paid int64) {
	r.c.Evicted.Add(1)
	r.c.WastedBytes.Add(paid)
}

// RecordShed counts one request refused during an origin brownout.
func (r *Registry) RecordShed() { r.c.Shed.Add(1) }

// RecordBrownout counts one entry into a degraded health state and
// moves the health gauge (core.HealthState numbering).
func (r *Registry) RecordBrownout(state int64) {
	r.c.Brownouts.Add(1)
	r.g.Health.Store(state)
}

// RecordHealth moves the health gauge without counting a brownout —
// used for the recovering→ok transitions.
func (r *Registry) RecordHealth(state int64) { r.g.Health.Store(state) }

// RecordWireConn moves the open wire-connection gauge by delta
// (+1 on accept, -1 on teardown).
func (r *Registry) RecordWireConn(delta int64) { r.w.WireConns.Add(delta) }

// RecordWireOverflow counts one wire connection dropped because its
// event queue overflowed.
func (r *Registry) RecordWireOverflow() { r.w.WireOverflows.Add(1) }

// RecordWireRead accumulates one batched read's decode results:
// frames completed and payment bytes credited. Called once per
// socket Read, not per frame, to keep the hot path cheap.
func (r *Registry) RecordWireRead(frames uint64, creditedBytes int64) {
	if frames > 0 {
		r.w.WireFrames.Add(frames)
	}
	if creditedBytes > 0 {
		r.w.WireIngestBytes.Add(creditedBytes)
	}
}

// Snapshot reads the registry's counters and gauges. Each value is
// individually atomic; the set is not a consistent cut, which
// telemetry tolerates.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	load(reflect.ValueOf(&s.Counters).Elem(), reflect.ValueOf(&r.c).Elem())
	load(reflect.ValueOf(&s.Gauges).Elem(), reflect.ValueOf(&r.g).Elem())
	load(reflect.ValueOf(&s.Wire).Elem(), reflect.ValueOf(&r.w).Elem())
	return s
}

// load copies each atomic of src, a group's atomic form, into the same
// field of dst, its value form.
func load(dst, src reflect.Value) {
	for i := range dst.NumField() {
		switch a := src.Field(i).Addr().Interface().(type) {
		case *atomic.Uint64:
			dst.Field(i).SetUint(a.Load())
		case *atomic.Int64:
			dst.Field(i).SetInt(a.Load())
		}
	}
}
