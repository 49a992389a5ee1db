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
//     http.Handler protecting any [Origin] over real sockets, exactly
//     like the paper's §6 prototype. [NewEmulatedOrigin] provides the
//     paper's emulated server.
//
//   - Core building blocks: [NewThinner] (the §3.3 virtual auction,
//     and with a Quantum the §5 scheduler for unequal requests) and
//     [NewPassThrough] (the no-defense baseline), both transport-
//     independent admission policies, over a [BidTable].
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
	// Bystander adds the §7.7 web host sharing a bottleneck.
	Bystander = scenario.Bystander
	// Result aggregates a simulation's measurements.
	Result = scenario.Result
	// GroupResult aggregates one client group's measurements.
	GroupResult = scenario.GroupResult
)

// Mode selects the front-end policy for simulations.
type Mode = appsim.Mode

// Front-end policies.
const (
	// ModeOff disables the defense (drop when busy) — the paper's OFF.
	ModeOff = appsim.ModeOff
	// ModeAuction is speak-up with the §3.3 payment channel.
	ModeAuction = appsim.ModeAuction
	// ModeRandomDrop is speak-up with §3.2 random drops and retries.
	ModeRandomDrop = appsim.ModeRandomDrop
	// ModeHetero is the §5 quantum auction for unequal requests.
	ModeHetero = appsim.ModeHetero
	// ModeProfiling is the §8.1 detect-and-block comparison baseline.
	ModeProfiling = appsim.ModeProfiling
)

// Simulate runs a deployment for cfg.Duration of virtual time and
// returns the aggregated results. Runs are deterministic in cfg.Seed.
func Simulate(cfg Scenario) *Result { return scenario.Run(cfg) }

// Declarative scenario files: the versioned JSON schema every command
// shares (cmd/repro -scenario, cmd/thinnerd, cmd/loadgen; files under
// configs/). A document converts to a runnable [Scenario] with its
// Config method and back with internal/config.FromScenario; encoding
// is canonical, so each document has exactly one hash.
type (
	// ScenarioFile is one declarative scenario document.
	ScenarioFile = config.Scenario
	// ScenarioThinner is a document's thinner section — also the body
	// of thinnerd's /control/config endpoint.
	ScenarioThinner = config.Thinner
)

// LoadScenarioFile resolves and validates a scenario document by name:
// a disk path wins; otherwise the name is looked up in the embedded
// configs/ set, where the ".json" suffix is optional.
func LoadScenarioFile(name string) (ScenarioFile, error) { return config.Resolve(configs.FS, name) }

// ScenarioFileHash returns the short hash of a document's canonical
// encoding — the identity repro tables, loadgen summaries, and BENCH
// entries use to attribute results to one exact configuration.
func ScenarioFileHash(s ScenarioFile) string { return config.ShortHash(s) }

// Parallel experiment sweeps. A SweepGrid collects named Scenarios; a
// SweepEngine fans them across a worker pool and returns results
// ordered by grid index, bit-for-bit identical to a serial run.
type (
	// SweepGrid accumulates the cells of a parameter sweep.
	SweepGrid = sweep.Grid
	// SweepRun is one named cell of a sweep grid.
	SweepRun = sweep.Run
	// SweepResult pairs a cell with its completed simulation.
	SweepResult = sweep.Result
	// SweepEngine executes grids over a bounded worker pool.
	SweepEngine = sweep.Engine
	// SweepProgress observes each completed run of a sweep.
	SweepProgress = sweep.Progress
)

// SweepSummary renders an aggregate table of a completed sweep.
func SweepSummary(title string, rs []SweepResult) fmt.Stringer {
	return sweep.Summary(title, rs)
}

// Adversary suite. A strategy-driven attacker engine shared by the
// simulator and the live load generator: declare an attacker by name
// on a [ClientGroup] (Strategy: "onoff", "mimic", "defector",
// "flood", "adaptive", "poisson") or drive real HTTP traffic with
// `cmd/loadgen -attack <profile>`. internal/exp's Adversary
// experiment sweeps the whole registry into a robustness-frontier
// table (`cmd/repro -experiment adversary`).
type (
	// AdversaryStrategy drives one attacking client: request timing,
	// windowing, payment sizing, and per-request work, adapted from
	// observed feedback.
	AdversaryStrategy = adversary.Strategy
	// AdversarySpec declares a strategy by name with its knobs.
	AdversarySpec = adversary.Spec
	// AdversaryOutcome is the feedback one request produces.
	AdversaryOutcome = adversary.Outcome
	// AdversaryCohort coordinates a group's strategies: a shared
	// bandwidth budget and coupon-collected burst phases.
	AdversaryCohort = adversary.Cohort
)

// AdversaryNames lists the registered attacker strategies, sorted.
func AdversaryNames() []string { return adversary.Names() }

// AdversaryDoc returns a one-line description of a registered
// strategy ("" if unknown).
func AdversaryDoc(name string) string { return adversary.Doc(name) }

// NewAdversaryCohort creates shared coordination state for a group of
// `members` clients running spec.
func NewAdversaryCohort(spec AdversarySpec, members int) *AdversaryCohort {
	return adversary.NewCohort(spec, members)
}

// NewAdversary validates spec and builds one strategy instance;
// cohort may be nil for uncoordinated strategies.
func NewAdversary(spec AdversarySpec, cohort *AdversaryCohort) (AdversaryStrategy, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec.New(cohort), nil
}

// Core building blocks (transport-independent thinner policies).
type (
	// RequestID correlates a request with its payment channel.
	RequestID = core.RequestID
	// Clock abstracts time for the core state machines.
	Clock = core.Clock
	// Thinner is the §3.3 virtual-auction front-end state machine and,
	// with a Quantum, the §5 quantum scheduler.
	Thinner = core.Thinner
	// ThinnerConfig tunes a Thinner.
	ThinnerConfig = core.Config
	// RandomDropConfig tunes the §3.2 random-drop front-end
	// (ModeRandomDrop).
	RandomDropConfig = core.RandomDropConfig
	// PassThrough is the no-defense baseline front-end.
	PassThrough = core.PassThrough
	// ProfilerConfig tunes the §8.1 address profile: per-address rate
	// limits that run ahead of the no-defense pass-through
	// (ModeProfiling).
	ProfilerConfig = core.ProfilerConfig
	// BidTable is the concurrent sharded payment table behind both
	// auction policies: lock-free per-chunk crediting, per-shard maxima
	// for the auction scan.
	BidTable = core.BidTable
	// PayChan is one request's payment channel in a BidTable; credit
	// chunks through it with no locks.
	PayChan = core.PayChan
	// ChanState is a payment channel's lifecycle word.
	ChanState = core.ChanState
)

// Payment-channel lifecycle states.
const (
	// ChanActive: open and accepting payment.
	ChanActive = core.ChanActive
	// ChanAdmitted: won an auction; stop paying and await service.
	ChanAdmitted = core.ChanAdmitted
	// ChanEvicted: timed out; payment wasted, stop sending.
	ChanEvicted = core.ChanEvicted
)

// NewThinner creates the §3.3 virtual-auction thinner (the §5
// scheduler if cfg.Quantum is set) on a clock.
func NewThinner(clock Clock, cfg ThinnerConfig) *Thinner { return core.NewThinner(clock, cfg) }

// NewPassThrough creates the no-defense baseline front-end.
func NewPassThrough() *PassThrough { return core.NewPassThrough() }

// NewBidTable creates a concurrent payment table with the given shard
// count (rounded up to a power of two; <= 0 selects a GOMAXPROCS-
// scaled default).
func NewBidTable(shards int) *BidTable { return core.NewBidTable(shards) }

// Live (real-socket) front-end.
type (
	// Origin is a protected service behind the live thinner.
	Origin = web.Origin
	// OriginFunc adapts a function to Origin.
	OriginFunc = web.OriginFunc
	// Front is the live speak-up thinner (an http.Handler).
	Front = web.Front
	// FrontConfig tunes a Front.
	FrontConfig = web.Config
	// FrontStats is the /stats JSON shape.
	FrontStats = web.Stats
)

// NewFront builds the live thinner protecting origin. Mount it on any
// http server:
//
//	front := speakup.NewFront(origin, speakup.FrontConfig{})
//	http.ListenAndServe(":8080", front)
func NewFront(origin Origin, cfg FrontConfig) *Front { return web.NewFront(origin, cfg) }

// NewEmulatedOrigin returns the paper's emulated server: one request
// at a time, service time uniform in [0.9/c, 1.1/c].
func NewEmulatedOrigin(capacity float64) Origin { return web.NewEmulatedOrigin(capacity) }

// Fault injection and graceful degradation. Scenario files carry a
// declarative fault plan ([FaultEvent]: kind x target x schedule x
// magnitude) that the simulator injects deterministically; the live
// stack gets [WrapFaultListener] for socket-level chaos and a
// brownout health ladder on the thinner ([HealthState], surfaced at
// /healthz and in /stats).
type (
	// FaultKind names one injectable failure mode.
	FaultKind = faults.Kind
	// FaultEvent schedules one fault in a scenario's plan.
	FaultEvent = faults.Event
	// FaultPlan is a scenario's ordered fault schedule.
	FaultPlan = faults.Plan
	// RetryBackoff is the bounded jittered exponential backoff retrying
	// clients use between re-issues.
	RetryBackoff = faults.Backoff
	// ConnFaults configures socket-level fault injection for the live
	// front's listener.
	ConnFaults = faults.ConnFaults
	// HealthState is the thinner's brownout ladder position.
	HealthState = core.HealthState
	// FrontHealth is the live front's /healthz JSON shape.
	FrontHealth = web.Healthz
)

// Injectable fault kinds.
const (
	// FaultLinkLoss drops packets on a link with some probability.
	FaultLinkLoss = faults.LinkLoss
	// FaultLinkJitter adds random extra delay to a link.
	FaultLinkJitter = faults.LinkJitter
	// FaultPartition takes a link down entirely.
	FaultPartition = faults.Partition
	// FaultOriginStall freezes the origin without losing work.
	FaultOriginStall = faults.OriginStall
	// FaultOriginCrash kills the origin, losing the in-flight request.
	FaultOriginCrash = faults.OriginCrash
)

// Brownout ladder states.
const (
	// HealthOK: auctions run normally.
	HealthOK = core.HealthOK
	// HealthStalled: origin down — auctions paused, arrivals shed,
	// admitted channels held.
	HealthStalled = core.HealthStalled
	// HealthRecovering: origin back — evictions held for a grace
	// period while the backlog drains.
	HealthRecovering = core.HealthRecovering
)

// WrapFaultListener wraps a listener so accepted connections drop,
// delay, or reset per f — deterministic in f.Seed per connection. With
// a zero f the listener is returned unchanged.
func WrapFaultListener(l net.Listener, f ConnFaults) net.Listener { return faults.WrapListener(l, f) }

// Binary framed payment transport (internal/wire): a second listener
// for the same Front, multiplexing many payment channels as
// length-prefixed OPEN/CREDIT/CLOSE frames over persistent TCP —
// payment ingest without HTTP's per-chunk tax. Serve it next to the
// HTTP listener (cmd/thinnerd's -wire-addr does exactly this):
//
//	ws := speakup.NewWireServer(front, speakup.WireServerConfig{Registry: front.Registry()})
//	ln, _ := net.Listen("tcp", ":8081")
//	go ws.Serve(ln)
type (
	// WireServer serves the binary payment transport for a Front.
	WireServer = wire.Server
	// WireServerConfig tunes a WireServer.
	WireServerConfig = wire.ServerConfig
	// WireBackend is the front interface a WireServer drives.
	WireBackend = wire.Backend
	// WireClient multiplexes payment channels over one connection.
	WireClient = wire.Client
	// WireResult is one opened channel's terminal outcome.
	WireResult = wire.Result
	// WireStatus classifies a WireResult (admitted/evicted/...).
	WireStatus = wire.Status
)

// NewWireServer creates a wire-protocol server for a backend front.
func NewWireServer(be WireBackend, cfg WireServerConfig) *WireServer {
	return wire.NewServer(be, cfg)
}

// DialWire connects a wire client to a server address.
func DialWire(addr string) (*WireClient, error) { return wire.Dial(addr) }

// Observability: sampled request-lifecycle tracing ([internal/trace])
// and fleet telemetry aggregation ([internal/fleetwatch]). Enable
// tracing on a live front with FrontConfig.Trace (thinnerd's
// -trace-sample); read it back at GET /trace and GET /metrics. Watch a
// fleet of fronts with a FleetWatcher (cmd/fleetwatch).
type (
	// TraceConfig tunes the request-lifecycle tracer.
	TraceConfig = trace.Config
	// Tracer records sampled request lifecycles (nil = disabled).
	Tracer = trace.Tracer
	// TraceRecord is one completed lifecycle trace.
	TraceRecord = trace.Record
	// TraceVerdict is how a traced lifecycle ended.
	TraceVerdict = trace.Verdict
	// FleetWatcher aggregates telemetry across a fleet of fronts.
	FleetWatcher = fleetwatch.Watcher
	// FleetWatchConfig tunes a FleetWatcher.
	FleetWatchConfig = fleetwatch.Config
	// FleetFrontState is one watched front's latest state.
	FleetFrontState = fleetwatch.FrontState
	// FleetAggregate is the fleet-wide telemetry fold.
	FleetAggregate = fleetwatch.Aggregate
)

// NewTracer creates a request-lifecycle tracer (nil when cfg.Sample
// is 0 — the disabled tracer every hook tolerates).
func NewTracer(cfg TraceConfig) *Tracer { return trace.New(cfg) }

// TraceSampled reports whether id is traced at a one-in-sample rate —
// the shared predicate that lets load generators predict the server's
// sampled id set.
func TraceSampled(id uint64, sample int) bool { return trace.Sampled(id, sample) }

// NewFleetWatcher creates a watcher over cfg.Fronts (call Start).
func NewFleetWatcher(cfg FleetWatchConfig) *FleetWatcher { return fleetwatch.New(cfg) }

// Fleet rollout: the write half of fleet control
// ([internal/fleetctl], cmd/fleetctl). A FleetController takes one
// scenario file's thinner section and rolls it across N fronts as
// /control/config patches in health-gated waves — canary first —
// verifying convergence by config hash, soaking between waves on
// /healthz plus fleet telemetry, and automatically rolling every
// patched front back to its captured pre-rollout config when a
// brownout or shed guardrail breaches.
type (
	// FleetController executes one staged config rollout.
	FleetController = fleetctl.Controller
	// FleetRolloutConfig tunes a FleetController.
	FleetRolloutConfig = fleetctl.Config
	// FleetRolloutReport is a completed rollout's account.
	FleetRolloutReport = fleetctl.Report
	// FleetFrontReport is one front's rollout accounting.
	FleetFrontReport = fleetctl.FrontReport
	// FleetRolloutPolicy selects the partial-failure policy.
	FleetRolloutPolicy = fleetctl.Policy
	// FleetRolloutOutcome is how a rollout ended.
	FleetRolloutOutcome = fleetctl.Outcome
	// ThinnerStatus is a thinner section plus its canonical config
	// hash — the /control/config and /stats convergence identity.
	ThinnerStatus = config.ThinnerStatus
)

// Partial-failure policies.
const (
	// FleetPolicyAbort halts and rolls back on any exhausted front.
	FleetPolicyAbort = fleetctl.PolicyAbort
	// FleetPolicyQuorum tolerates failures while the convergeable
	// fraction stays at or above FleetRolloutConfig.Quorum.
	FleetPolicyQuorum = fleetctl.PolicyQuorum
)

// Rollout outcomes.
const (
	// FleetOutcomeConverged: every front reached its target hash.
	FleetOutcomeConverged = fleetctl.OutcomeConverged
	// FleetOutcomeQuorum: converged with some failures, within quorum.
	FleetOutcomeQuorum = fleetctl.OutcomeQuorum
	// FleetOutcomeRolledBack: a guardrail breached; every patched
	// front was restored to its pre-rollout config.
	FleetOutcomeRolledBack = fleetctl.OutcomeRolledBack
	// FleetOutcomeFailed: the protocol could not complete; the fleet
	// may be mixed.
	FleetOutcomeFailed = fleetctl.OutcomeFailed
)

// NewFleetController creates a rollout controller (call Run once).
func NewFleetController(cfg FleetRolloutConfig) (*FleetController, error) { return fleetctl.New(cfg) }

// ThinnerConfigHash returns the full canonical hash of a thinner
// section — the identity /control/config, /stats, and fleet rollout
// convergence checks share.
func ThinnerConfigHash(t ScenarioThinner) string { return config.HashThinner(t) }

// Handler is a convenience assertion that Front serves HTTP.
var _ http.Handler = (*web.Front)(nil)

// The live front serves the binary transport too.
var _ wire.Backend = (*web.Front)(nil)
