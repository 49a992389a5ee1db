package metrics

import "sync/atomic"

// Registry accumulates thinner activity for telemetry. It is the
// thinner's only tally: every core.Thinner owns one — the simulator's
// virtual-time thinner and the live front's alike — and the live
// front's /stats, /telemetry and /metrics endpoints all read it.
//
// All fields are atomics: the recording side runs on the thinner's
// control path while snapshots are taken from arbitrary telemetry
// goroutines. Counters are monotone; GoingPrice and LastWinner are
// last-value gauges.
type Registry struct {
	admitted       atomic.Uint64
	admittedDirect atomic.Uint64
	auctions       atomic.Uint64
	evicted        atomic.Uint64
	paidBytes      atomic.Int64
	wastedBytes    atomic.Int64
	goingPrice     atomic.Int64
	lastWinner     atomic.Uint64
	shed           atomic.Uint64
	brownouts      atomic.Uint64
	health         atomic.Int32

	// Wire-transport counters (internal/wire): the binary front
	// records its connection gauge and per-read frame/byte tallies
	// here so /telemetry covers both listeners.
	wireConns  atomic.Int64
	wireFrames atomic.Uint64
	wireBytes  atomic.Int64

	// lat holds the request-lifecycle latency histograms; /metrics
	// renders them as Prometheus histograms. All-atomic like the
	// counters above.
	lat LatencyHists
}

// Latency returns the registry's request-lifecycle histograms. The
// thinner core observes auction latency here; the trace layer
// (internal/trace) feeds the sampled wait/credit-gap/evict ones.
func (r *Registry) Latency() *LatencyHists { return &r.lat }

// GoingPrice returns the winning bid of the most recent auction (0
// before any auction).
func (r *Registry) GoingPrice() int64 { return r.goingPrice.Load() }

// LastWinner returns the id of the most recent auction winner (0
// before any auction).
func (r *Registry) LastWinner() uint64 { return r.lastWinner.Load() }

// Health returns the health gauge (core.HealthState numbering).
func (r *Registry) Health() int32 { return r.health.Load() }

// RecordAuction counts one auction won by id with a bid of paid bytes
// (under §5, one quantum's auction that gave id the server).
func (r *Registry) RecordAuction(id uint64, paid int64) {
	r.auctions.Add(1)
	r.goingPrice.Store(paid)
	r.lastWinner.Store(id)
}

// RecordAdmit counts one admission at a price of paid bytes. direct
// marks an admission to a free origin, with no auction and usually no
// payment.
func (r *Registry) RecordAdmit(paid int64, direct bool) {
	r.admitted.Add(1)
	r.paidBytes.Add(paid)
	if direct {
		r.admittedDirect.Add(1)
	}
}

// RecordEvict counts one timed-out payment channel; paid is the
// balance the channel forfeits.
func (r *Registry) RecordEvict(id uint64, paid int64) {
	r.evicted.Add(1)
	r.wastedBytes.Add(paid)
}

// RecordShed counts one request refused during an origin brownout.
func (r *Registry) RecordShed(id uint64) { r.shed.Add(1) }

// RecordBrownout counts one entry into a degraded health state and
// moves the health gauge (core.HealthState numbering).
func (r *Registry) RecordBrownout(state int32) {
	r.brownouts.Add(1)
	r.health.Store(state)
}

// RecordHealth moves the health gauge without counting a brownout —
// used for the recovering→ok transitions.
func (r *Registry) RecordHealth(state int32) { r.health.Store(state) }

// RecordWireConn moves the open wire-connection gauge by delta
// (+1 on accept, -1 on teardown).
func (r *Registry) RecordWireConn(delta int64) { r.wireConns.Add(delta) }

// RecordWireRead accumulates one batched read's decode results:
// frames completed and payment bytes credited. Called once per
// socket Read, not per frame, to keep the hot path cheap.
func (r *Registry) RecordWireRead(frames uint64, creditedBytes int64) {
	if frames > 0 {
		r.wireFrames.Add(frames)
	}
	if creditedBytes > 0 {
		r.wireBytes.Add(creditedBytes)
	}
}

// Snapshot is one telemetry observation — the NDJSON line shape of
// thinnerd's /telemetry stream. The registry fills the thinner
// counters; the snapshotting side (the live front) fills the
// deployment gauges (uptime, ingest, table sizes), which the registry
// cannot see.
type Snapshot struct {
	UptimeMS       int64   `json:"uptime_ms"`
	Admitted       uint64  `json:"admitted"`
	AdmittedDirect uint64  `json:"admitted_direct"`
	Auctions       uint64  `json:"auctions"`
	Evicted        uint64  `json:"evicted"`
	PaidBytes      int64   `json:"paid_bytes"`
	WastedBytes    int64   `json:"wasted_bytes"`
	GoingPrice     int64   `json:"going_price_bytes"`
	LastWinner     uint64  `json:"last_winner_id"`
	Shed           uint64  `json:"shed"`
	Brownouts      uint64  `json:"brownouts"`
	Health         int32   `json:"health"` // core.HealthState: 0 ok, 1 stalled, 2 recovering
	IngestBytes    int64   `json:"ingest_bytes"`
	IngestMbps     float64 `json:"ingest_mbps"`
	OpenChannels   int     `json:"open_channels"`
	Contenders     int     `json:"contenders"`
	// Wire-transport slice of the ingest: open binary connections,
	// frames decoded, and payment bytes credited over internal/wire.
	// IngestBytes minus WireIngestBytes is the HTTP share.
	WireConns       int64  `json:"wire_conns"`
	WireFrames      uint64 `json:"wire_frames"`
	WireIngestBytes int64  `json:"wire_ingest_bytes"`
}

// Snapshot reads the registry's counters. Each field is individually
// atomic; the set is not a consistent cut, which telemetry tolerates.
func (r *Registry) Snapshot() Snapshot {
	return Snapshot{
		Admitted:        r.admitted.Load(),
		AdmittedDirect:  r.admittedDirect.Load(),
		Auctions:        r.auctions.Load(),
		Evicted:         r.evicted.Load(),
		PaidBytes:       r.paidBytes.Load(),
		WastedBytes:     r.wastedBytes.Load(),
		GoingPrice:      r.goingPrice.Load(),
		LastWinner:      r.lastWinner.Load(),
		Shed:            r.shed.Load(),
		Brownouts:       r.brownouts.Load(),
		Health:          r.health.Load(),
		WireConns:       r.wireConns.Load(),
		WireFrames:      r.wireFrames.Load(),
		WireIngestBytes: r.wireBytes.Load(),
	}
}
