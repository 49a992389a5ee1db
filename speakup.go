// Package speakup is a from-scratch Go implementation of "DDoS Defense
// by Offense" (Walfish, Vutukuru, Balakrishnan, Karger, Shenker —
// SIGCOMM 2006): the speak-up defense against application-level DDoS,
// in which a front-end (the thinner) encourages all clients of an
// overloaded server to send dummy payment traffic and admits, each time
// the server frees up, the request that has paid the most bytes. Since
// attackers already saturate their uplinks and legitimate clients
// don't, the server's capacity ends up divided in proportion to
// clients' bandwidth — min(g, c·G/(G+B)) of it goes to the good
// clients (paper §3).
//
// The package offers three entry points:
//
//   - Simulation: [Simulate] runs a complete deployment (clients,
//     access links, bottlenecks, thinner, emulated server) inside a
//     deterministic packet-level simulator and reports the paper's §7
//     metrics. [Scenario] configures it; experiment presets for every
//     figure live in internal/exp and are runnable via `go test
//     -bench` or cmd/repro.
//
//   - Live front-end: [NewFront] builds the thinner as an
//     http.Handler protecting any origin over real sockets, exactly
//     like the paper's §6 prototype. [NewEmulatedOrigin] provides the
//     paper's emulated server.
//
//   - Core building blocks: [NewPassThrough] (the no-defense
//     baseline, a transport-independent admission policy) and
//     [NewBidTable] (the concurrent payment table behind the auction).
package speakup

import (
	"fmt"
	"net"
	"net/http"

	"speakup/configs"
	"speakup/internal/adversary"
	"speakup/internal/appsim"
	"speakup/internal/config"
	"speakup/internal/core"
	"speakup/internal/faults"
	"speakup/internal/fleetctl"
	"speakup/internal/fleetwatch"
	"speakup/internal/scenario"
	"speakup/internal/sweep"
	"speakup/internal/trace"
	"speakup/internal/web"
	"speakup/internal/wire"
)

// Re-exported configuration and result types for simulations.
type (
	// Scenario describes one simulated deployment (see Simulate).
	Scenario = scenario.Config
	// ClientGroup describes a set of identical simulated clients.
	ClientGroup = scenario.ClientGroup
	// Bottleneck is a shared link between clients and the LAN (§7.6).
	Bottleneck = scenario.Bottleneck
)

// Mode selects the front-end policy for simulations.
type Mode = appsim.Mode

// Front-end policies.
const (
	// ModeOff disables the defense (drop when busy) — the paper's OFF.
	ModeOff = appsim.ModeOff
	// ModeAuction is speak-up with the §3.3 payment channel.
	ModeAuction = appsim.ModeAuction
	// ModeHetero is the §5 quantum auction for unequal requests.
	ModeHetero = appsim.ModeHetero
)

// Simulate runs a deployment for cfg.Duration of virtual time and
// returns the aggregated results. Runs are deterministic in cfg.Seed.
func Simulate(cfg Scenario) *scenario.Result { return scenario.Run(cfg) }

// LoadScenarioFile resolves and validates a declarative scenario
// document by name: a disk path wins; otherwise the name is looked up
// in the embedded configs/ set, where the ".json" suffix is optional.
// The versioned JSON schema is the one every command shares
// (cmd/repro -scenario, cmd/thinnerd, cmd/loadgen); a document
// converts to a runnable [Scenario] with its Config method, and its
// encoding is canonical, so each document has exactly one hash.
func LoadScenarioFile(name string) (config.Scenario, error) { return config.Resolve(configs.FS, name) }

// ScenarioFileHash returns the short hash of a document's canonical
// encoding — the identity repro tables, loadgen summaries, and BENCH
// entries use to attribute results to one exact configuration.
func ScenarioFileHash(s config.Scenario) string { return config.ShortHash(s) }

// Parallel experiment sweeps. A SweepGrid collects named Scenarios; a
// SweepEngine fans them across a worker pool and returns results
// ordered by grid index, bit-for-bit identical to a serial run.
type (
	// SweepGrid accumulates the cells of a parameter sweep.
	SweepGrid = sweep.Grid
	// SweepEngine executes grids over a bounded worker pool.
	SweepEngine = sweep.Engine
)

// SweepSummary renders an aggregate table of a completed sweep.
func SweepSummary(title string, rs []sweep.Result) fmt.Stringer {
	return sweep.Summary(title, rs)
}

// AdversaryDoc returns a one-line description of a registered attacker
// strategy ("" if unknown) — the names a [ClientGroup]'s Strategy
// field and `cmd/loadgen -attack` accept.
func AdversaryDoc(name string) string { return adversary.Doc(name) }

// Core building blocks (transport-independent thinner policies).
type (
	// RequestID correlates a request with its payment channel.
	RequestID = core.RequestID
	// ThinnerConfig tunes the auction thinner of a Scenario or a
	// FrontConfig; with a Quantum it is the §5 scheduler.
	ThinnerConfig = core.Config
)

// NewPassThrough creates the no-defense baseline front-end.
func NewPassThrough() *core.PassThrough { return core.NewPassThrough() }

// NewBidTable creates the concurrent sharded payment table behind the
// auction (lock-free per-chunk crediting, per-shard maxima for the
// auction scan) with the given shard count (rounded up to a power of
// two; <= 0 selects a GOMAXPROCS-scaled default).
func NewBidTable(shards int) *core.BidTable { return core.NewBidTable(shards) }

// Live (real-socket) front-end.
type (
	// OriginFunc adapts a function to the origin a front protects.
	OriginFunc = web.OriginFunc
	// FrontConfig tunes a live front.
	FrontConfig = web.Config
)

// NewFront builds the live thinner, an http.Handler, protecting
// origin. Mount it on any http server:
//
//	front := speakup.NewFront(origin, speakup.FrontConfig{})
//	http.ListenAndServe(":8080", front)
func NewFront(origin web.Origin, cfg FrontConfig) *web.Front { return web.NewFront(origin, cfg) }

// NewEmulatedOrigin returns the paper's emulated server: one request
// at a time, service time uniform in [0.9/c, 1.1/c].
func NewEmulatedOrigin(capacity float64) web.Origin { return web.NewEmulatedOrigin(capacity) }

// Fault injection. Scenario files carry a declarative fault plan that
// the simulator injects deterministically; the live stack gets
// [WrapFaultListener] for socket-level chaos.

// ConnFaults configures socket-level fault injection for the live
// front's listener.
type ConnFaults = faults.ConnFaults

// WrapFaultListener wraps a listener so accepted connections drop,
// delay, or reset per f — deterministic in f.Seed per connection. With
// a zero f the listener is returned unchanged.
func WrapFaultListener(l net.Listener, f ConnFaults) net.Listener { return faults.WrapListener(l, f) }

// Binary framed payment transport (internal/wire): a second listener
// for the same front, multiplexing many payment channels as
// length-prefixed OPEN/CREDIT/CLOSE frames over persistent TCP —
// payment ingest without HTTP's per-chunk tax. Serve it next to the
// HTTP listener (cmd/thinnerd's -wire-addr does exactly this):
//
//	ws := speakup.NewWireServer(front, speakup.WireServerConfig{Registry: front.Registry()})
//	ln, _ := net.Listen("tcp", ":8081")
//	go ws.Serve(ln)
type (
	// WireServer serves the binary payment transport for a front.
	WireServer = wire.Server
	// WireServerConfig tunes a WireServer.
	WireServerConfig = wire.ServerConfig
)

// NewWireServer creates a wire-protocol server for a front.
func NewWireServer(be wire.Backend, cfg WireServerConfig) *WireServer {
	return wire.NewServer(be, cfg)
}

// DialWire connects a wire client, which multiplexes payment channels
// over one connection, to a server address.
func DialWire(addr string) (*wire.Client, error) { return wire.Dial(addr) }

// Observability: sampled request-lifecycle tracing ([internal/trace])
// and fleet telemetry aggregation ([internal/fleetwatch]). Enable
// tracing on a live front with FrontConfig.Trace (thinnerd's
// -trace-sample); read it back at GET /trace and GET /metrics. Watch a
// fleet of fronts with a FleetWatcher (cmd/fleetwatch).
type (
	// TraceConfig tunes the request-lifecycle tracer.
	TraceConfig = trace.Config
	// FleetWatcher aggregates telemetry across a fleet of fronts.
	FleetWatcher = fleetwatch.Watcher
	// FleetWatchConfig tunes a FleetWatcher.
	FleetWatchConfig = fleetwatch.Config
	// FleetFrontState is one watched front's latest state.
	FleetFrontState = fleetwatch.FrontState
	// FleetAggregate is the fleet-wide telemetry fold.
	FleetAggregate = fleetwatch.Aggregate
)

// NewFleetWatcher creates a watcher over cfg.Fronts (call Start).
func NewFleetWatcher(cfg FleetWatchConfig) *FleetWatcher { return fleetwatch.New(cfg) }

// Fleet rollout: the write half of fleet control
// ([internal/fleetctl], cmd/fleetctl). A rollout controller takes one
// scenario file's thinner section and rolls it across N fronts as
// /control/config patches in health-gated waves — canary first —
// verifying convergence by config hash, soaking between waves on
// /healthz plus fleet telemetry, and automatically rolling every
// patched front back to its captured pre-rollout config when a
// brownout or shed guardrail breaches.
type (
	// FleetRolloutConfig tunes a rollout controller.
	FleetRolloutConfig = fleetctl.Config
	// FleetRolloutPolicy selects the partial-failure policy.
	FleetRolloutPolicy = fleetctl.Policy
)

// FleetOutcomeRolledBack: a guardrail breached; every patched front
// was restored to its pre-rollout config.
const FleetOutcomeRolledBack = fleetctl.OutcomeRolledBack

// NewFleetController creates a rollout controller (call Run once).
func NewFleetController(cfg FleetRolloutConfig) (*fleetctl.Controller, error) {
	return fleetctl.New(cfg)
}

// ThinnerConfigHash returns the full canonical hash of a thinner
// section — the identity /control/config, /stats, and fleet rollout
// convergence checks share.
func ThinnerConfigHash(t config.Thinner) string { return config.HashThinner(t) }

// Handler is a convenience assertion that Front serves HTTP.
var _ http.Handler = (*web.Front)(nil)

// The live front serves the binary transport too.
var _ wire.Backend = (*web.Front)(nil)
