// Package config defines the versioned, declarative scenario schema
// that drives every speak-up deployment from one description: the
// simulator's figure sweeps (internal/exp loads its base scenarios
// from configs/), ad-hoc runs (cmd/repro -scenario), and the live
// stack (cmd/thinnerd and cmd/loadgen consume the same files, with
// command-line flags acting as overrides).
//
// The schema is a JSON mirror of scenario.Config. Conversion is
// lossless in both directions: FromScenario followed by Config returns
// the exact same scenario.Config value, and Encode produces one
// canonical byte encoding (two-space indent, fixed field order,
// durations as Go duration strings, trailing newline) so a decoded
// file re-encodes byte-stably and a scenario has exactly one Hash.
//
// Decoding is strict — unknown fields, trailing data, and unsupported
// versions are errors — so a typo in a knob name fails loudly instead
// of silently running the default.
package config

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"strings"
	"time"

	"speakup/internal/appsim"
	"speakup/internal/core"
	"speakup/internal/faults"
	"speakup/internal/scenario"
)

// Version is the schema version this package reads and writes.
const Version = 1

// Duration marshals as a Go duration string ("250ms", "1m30s"). The
// zero value is omitted from encodings (omitempty applies).
type Duration time.Duration

// D returns the value as a time.Duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

// MarshalJSON encodes the duration as its canonical Go string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts a Go duration string.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("duration must be a string like \"250ms\": %w", err)
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return err
	}
	*d = Duration(v)
	return nil
}

// Scenario is the root document: one experiment deployment.
type Scenario struct {
	// Version must be 1.
	Version int `json:"version"`
	// Name labels the scenario in reports and hashes (not part of the
	// simulation input).
	Name string `json:"name,omitempty"`
	// Notes is free-form documentation.
	Notes string `json:"notes,omitempty"`

	Seed     int64    `json:"seed,omitempty"`
	Duration Duration `json:"duration,omitempty"`
	Warmup   Duration `json:"warmup,omitempty"`
	// Capacity is the origin's service rate in requests/second.
	Capacity float64 `json:"capacity"`
	// Mode selects the front-end policy: "off", "auction",
	// "random-drop", "hetero", or "profiling". Empty means "off".
	Mode string `json:"mode"`
	// Transport selects the listener live load generators drive:
	// "http" (default when empty) or "wire", the binary framed payment
	// transport. The simulator ignores it.
	Transport string        `json:"transport,omitempty"`
	Groups    []ClientGroup `json:"groups"`

	Bottlenecks []Bottleneck `json:"bottlenecks,omitempty"`
	Bystander   *Bystander   `json:"bystander,omitempty"`

	TrunkRate   float64  `json:"trunk_rate,omitempty"`
	TrunkDelay  Duration `json:"trunk_delay,omitempty"`
	TrunkQueue  int      `json:"trunk_queue,omitempty"`
	AccessQueue int      `json:"access_queue,omitempty"`

	Sizes      *Sizes      `json:"sizes,omitempty"`
	Thinner    *Thinner    `json:"thinner,omitempty"`
	Hetero     *Hetero     `json:"hetero,omitempty"`
	RandomDrop *RandomDrop `json:"random_drop,omitempty"`
	Profiler   *Profiler   `json:"profiler,omitempty"`

	// Faults is the deterministic fault-injection plan (internal/faults):
	// each event is kind × target × window × magnitude. Absent means no
	// faults — the original model, byte for byte.
	Faults []Fault `json:"faults,omitempty"`
}

// ClientGroup mirrors scenario.ClientGroup.
type ClientGroup struct {
	Name           string   `json:"name,omitempty"`
	Count          int      `json:"count"`
	Good           bool     `json:"good,omitempty"`
	Strategy       string   `json:"strategy,omitempty"`
	Aggressiveness float64  `json:"aggressiveness,omitempty"`
	Bandwidth      float64  `json:"bandwidth,omitempty"`
	LinkDelay      Duration `json:"link_delay,omitempty"`
	Lambda         float64  `json:"lambda,omitempty"`
	Window         int      `json:"window,omitempty"`
	Bottleneck     int      `json:"bottleneck,omitempty"`
	PayConns       int      `json:"pay_conns,omitempty"`
	Work           Duration `json:"work,omitempty"`
	RetryBudget    int      `json:"retry_budget,omitempty"`
	RetryBase      Duration `json:"retry_base,omitempty"`
	RetryCap       Duration `json:"retry_cap,omitempty"`
	Deadline       Duration `json:"deadline,omitempty"`
}

// Fault mirrors faults.Event — one scheduled failure. Kinds:
// "link-loss" (magnitude = drop probability), "link-jitter"
// (magnitude = max extra delay in seconds), "partition", and the
// targetless "origin-stall" and "origin-crash". Link targets are
// "trunk", "access:<group>", or "bottleneck:<n>".
type Fault struct {
	Kind      string   `json:"kind"`
	Target    string   `json:"target,omitempty"`
	At        Duration `json:"at,omitempty"`
	Duration  Duration `json:"duration"`
	Magnitude float64  `json:"magnitude,omitempty"`
	Seed      int64    `json:"seed,omitempty"`
}

// Bottleneck mirrors scenario.Bottleneck.
type Bottleneck struct {
	Rate       float64  `json:"rate"`
	Delay      Duration `json:"delay,omitempty"`
	QueueBytes int      `json:"queue_bytes,omitempty"`
}

// Bystander mirrors scenario.Bystander.
type Bystander struct {
	FileSize     int      `json:"file_size"`
	MaxDownloads int      `json:"max_downloads,omitempty"`
	Bandwidth    float64  `json:"bandwidth,omitempty"`
	LinkDelay    Duration `json:"link_delay,omitempty"`
}

// Sizes mirrors appsim.Sizes (protocol message sizes in bytes).
type Sizes struct {
	Initial  int `json:"initial,omitempty"`
	Please   int `json:"please,omitempty"`
	Request  int `json:"request,omitempty"`
	Post     int `json:"post,omitempty"`
	Continue int `json:"continue,omitempty"`
	Response int `json:"response,omitempty"`
	Busy     int `json:"busy,omitempty"`
	Retry    int `json:"retry,omitempty"`
}

// Thinner mirrors core.Config — the auction policy's knobs; the §5
// ones (Quantum, AbortAfter) are the hetero section's. It doubles
// as the body of thinnerd's /control/config endpoint, where zero
// fields mean "leave unchanged" and a Shards change is rejected (the
// bid table is built around its shard count at startup).
type Thinner struct {
	OrphanTimeout     Duration `json:"orphan_timeout,omitempty"`
	InactivityTimeout Duration `json:"inactivity_timeout,omitempty"`
	SweepInterval     Duration `json:"sweep_interval,omitempty"`
	Shards            int      `json:"shards,omitempty"`
}

// DecodeThinner strictly decodes one Thinner section — the body of
// thinnerd's /control/config endpoint. Unknown fields and trailing
// data are errors, so a typoed knob cannot silently no-op. The one
// tolerated extra is config_hash, so a captured GET response can be
// POSTed straight back as a restore; the hash value itself is ignored
// (the body is a patch — its identity is decided by the receiver).
func DecodeThinner(r io.Reader) (Thinner, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var t ThinnerStatus
	if err := dec.Decode(&t); err != nil {
		return Thinner{}, fmt.Errorf("config: thinner section: %w", err)
	}
	if dec.More() {
		return Thinner{}, fmt.Errorf("config: trailing data after thinner section")
	}
	return t.Thinner, nil
}

// ThinnerFromCore converts a core config back to its schema section
// (the shape /control/config reports).
func ThinnerFromCore(c core.Config) Thinner {
	return Thinner{
		OrphanTimeout:     Duration(c.OrphanTimeout),
		InactivityTimeout: Duration(c.InactivityTimeout),
		SweepInterval:     Duration(c.SweepInterval),
		Shards:            c.Shards,
	}
}

// Core converts the section to the thinner core's config type.
func (t Thinner) Core() core.Config {
	return core.Config{
		OrphanTimeout:     t.OrphanTimeout.D(),
		InactivityTimeout: t.InactivityTimeout.D(),
		SweepInterval:     t.SweepInterval.D(),
		Shards:            t.Shards,
	}
}

// Hetero is the §5 section: tau sets core.Config's Quantum, and the
// other two its same-named fields (over the thinner section's).
type Hetero struct {
	Tau           Duration `json:"tau"`
	AbortAfter    Duration `json:"abort_after,omitempty"`
	OrphanTimeout Duration `json:"orphan_timeout,omitempty"`
}

// RandomDrop mirrors core.RandomDropConfig.
type RandomDrop struct {
	Capacity   float64  `json:"capacity,omitempty"`
	AdaptEvery Duration `json:"adapt_every,omitempty"`
	MaxQueue   int      `json:"max_queue,omitempty"`
	Seed       int64    `json:"seed,omitempty"`
}

// Profiler mirrors core.ProfilerConfig.
type Profiler struct {
	BaselineRate   float64  `json:"baseline_rate"`
	Slack          float64  `json:"slack,omitempty"`
	Burst          float64  `json:"burst,omitempty"`
	BlacklistAfter int      `json:"blacklist_after,omitempty"`
	BlacklistFor   Duration `json:"blacklist_for,omitempty"`
}

// ParseMode maps a schema mode string to the front-end policy. The
// empty string selects ModeOff, matching scenario.Config's zero value.
func ParseMode(s string) (appsim.Mode, error) {
	if s == "" {
		return appsim.ModeOff, nil
	}
	for m := appsim.ModeOff; m <= appsim.ModeProfiling; m++ {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("config: unknown mode %q (have off, auction, random-drop, hetero, profiling)", s)
}

// FromScenario converts a scenario.Config to its schema document.
// Sections that are entirely zero are omitted, so the round trip
// through Config is exact.
func FromScenario(sc scenario.Config) Scenario {
	s := Scenario{
		Version:     Version,
		Seed:        sc.Seed,
		Duration:    Duration(sc.Duration),
		Warmup:      Duration(sc.Warmup),
		Capacity:    sc.Capacity,
		Mode:        sc.Mode.String(),
		Transport:   sc.Transport,
		TrunkRate:   sc.TrunkRate,
		TrunkDelay:  Duration(sc.TrunkDelay),
		TrunkQueue:  sc.TrunkQueue,
		AccessQueue: sc.AccessQueue,
	}
	for _, g := range sc.Groups {
		s.Groups = append(s.Groups, ClientGroup{
			Name:           g.Name,
			Count:          g.Count,
			Good:           g.Good,
			Strategy:       g.Strategy,
			Aggressiveness: g.Aggressiveness,
			Bandwidth:      g.Bandwidth,
			LinkDelay:      Duration(g.LinkDelay),
			Lambda:         g.Lambda,
			Window:         g.Window,
			Bottleneck:     g.Bottleneck,
			PayConns:       g.PayConns,
			Work:           Duration(g.Work),
			RetryBudget:    g.RetryBudget,
			RetryBase:      Duration(g.RetryBase),
			RetryCap:       Duration(g.RetryCap),
			Deadline:       Duration(g.Deadline),
		})
	}
	for _, f := range sc.Faults {
		s.Faults = append(s.Faults, Fault{
			Kind:      string(f.Kind),
			Target:    f.Target,
			At:        Duration(f.At),
			Duration:  Duration(f.Duration),
			Magnitude: f.Magnitude,
			Seed:      f.Seed,
		})
	}
	for _, b := range sc.Bottlenecks {
		s.Bottlenecks = append(s.Bottlenecks, Bottleneck{
			Rate: b.Rate, Delay: Duration(b.Delay), QueueBytes: b.QueueBytes,
		})
	}
	if sc.BystanderH != nil {
		s.Bystander = &Bystander{
			FileSize:     sc.BystanderH.FileSize,
			MaxDownloads: sc.BystanderH.MaxDownloads,
			Bandwidth:    sc.BystanderH.Bandwidth,
			LinkDelay:    Duration(sc.BystanderH.LinkDelay),
		}
	}
	if sc.Sizes != (appsim.Sizes{}) {
		s.Sizes = &Sizes{
			Initial: sc.Sizes.Initial, Please: sc.Sizes.Please,
			Request: sc.Sizes.Request, Post: sc.Sizes.Post,
			Continue: sc.Sizes.Continue, Response: sc.Sizes.Response,
			Busy: sc.Sizes.Busy, Retry: sc.Sizes.Retry,
		}
	}
	if t := ThinnerFromCore(sc.Thinner); t != (Thinner{}) {
		s.Thinner = &t
	}
	if sc.Thinner.Quantum != 0 || sc.Thinner.AbortAfter != 0 {
		s.Hetero = &Hetero{Tau: Duration(sc.Thinner.Quantum), AbortAfter: Duration(sc.Thinner.AbortAfter)}
	}
	if sc.RandomDrop != (core.RandomDropConfig{}) {
		s.RandomDrop = &RandomDrop{
			Capacity:   sc.RandomDrop.Capacity,
			AdaptEvery: Duration(sc.RandomDrop.AdaptEvery),
			MaxQueue:   sc.RandomDrop.MaxQueue,
			Seed:       sc.RandomDrop.Seed,
		}
	}
	if sc.Profiler != (core.ProfilerConfig{}) {
		s.Profiler = &Profiler{
			BaselineRate:   sc.Profiler.BaselineRate,
			Slack:          sc.Profiler.Slack,
			Burst:          sc.Profiler.Burst,
			BlacklistAfter: sc.Profiler.BlacklistAfter,
			BlacklistFor:   Duration(sc.Profiler.BlacklistFor),
		}
	}
	return s
}

// Config converts the document back to the simulator's configuration.
// It fails on an unsupported version or an unknown mode; deeper
// validation (group strategies, bottleneck references) is Validate's
// job, mirroring scenario.Config.Validate.
func (s Scenario) Config() (scenario.Config, error) {
	if s.Version != Version {
		return scenario.Config{}, fmt.Errorf("config: unsupported schema version %d (this build reads version %d)", s.Version, Version)
	}
	mode, err := ParseMode(s.Mode)
	if err != nil {
		return scenario.Config{}, err
	}
	sc := scenario.Config{
		Seed:        s.Seed,
		Duration:    s.Duration.D(),
		Warmup:      s.Warmup.D(),
		Capacity:    s.Capacity,
		Mode:        mode,
		Transport:   s.Transport,
		TrunkRate:   s.TrunkRate,
		TrunkDelay:  s.TrunkDelay.D(),
		TrunkQueue:  s.TrunkQueue,
		AccessQueue: s.AccessQueue,
	}
	for _, g := range s.Groups {
		sc.Groups = append(sc.Groups, scenario.ClientGroup{
			Name:           g.Name,
			Count:          g.Count,
			Good:           g.Good,
			Strategy:       g.Strategy,
			Aggressiveness: g.Aggressiveness,
			Bandwidth:      g.Bandwidth,
			LinkDelay:      g.LinkDelay.D(),
			Lambda:         g.Lambda,
			Window:         g.Window,
			Bottleneck:     g.Bottleneck,
			PayConns:       g.PayConns,
			Work:           g.Work.D(),
			RetryBudget:    g.RetryBudget,
			RetryBase:      g.RetryBase.D(),
			RetryCap:       g.RetryCap.D(),
			Deadline:       g.Deadline.D(),
		})
	}
	for _, f := range s.Faults {
		sc.Faults = append(sc.Faults, faults.Event{
			Kind:      faults.Kind(f.Kind),
			Target:    f.Target,
			At:        f.At.D(),
			Duration:  f.Duration.D(),
			Magnitude: f.Magnitude,
			Seed:      f.Seed,
		})
	}
	for _, b := range s.Bottlenecks {
		sc.Bottlenecks = append(sc.Bottlenecks, scenario.Bottleneck{
			Rate: b.Rate, Delay: b.Delay.D(), QueueBytes: b.QueueBytes,
		})
	}
	if s.Bystander != nil {
		sc.BystanderH = &scenario.Bystander{
			FileSize:     s.Bystander.FileSize,
			MaxDownloads: s.Bystander.MaxDownloads,
			Bandwidth:    s.Bystander.Bandwidth,
			LinkDelay:    s.Bystander.LinkDelay.D(),
		}
	}
	if s.Sizes != nil {
		sc.Sizes = appsim.Sizes{
			Initial: s.Sizes.Initial, Please: s.Sizes.Please,
			Request: s.Sizes.Request, Post: s.Sizes.Post,
			Continue: s.Sizes.Continue, Response: s.Sizes.Response,
			Busy: s.Sizes.Busy, Retry: s.Sizes.Retry,
		}
	}
	if s.Thinner != nil {
		sc.Thinner = s.Thinner.Core()
	}
	if h := s.Hetero; h != nil {
		sc.Thinner.Quantum, sc.Thinner.AbortAfter = h.Tau.D(), h.AbortAfter.D()
		if h.OrphanTimeout != 0 {
			sc.Thinner.OrphanTimeout = h.OrphanTimeout.D()
		}
	}
	if s.RandomDrop != nil {
		sc.RandomDrop = core.RandomDropConfig{
			Capacity:   s.RandomDrop.Capacity,
			AdaptEvery: s.RandomDrop.AdaptEvery.D(),
			MaxQueue:   s.RandomDrop.MaxQueue,
			Seed:       s.RandomDrop.Seed,
		}
	}
	if s.Profiler != nil {
		sc.Profiler = core.ProfilerConfig{
			BaselineRate:   s.Profiler.BaselineRate,
			Slack:          s.Profiler.Slack,
			Burst:          s.Profiler.Burst,
			BlacklistAfter: s.Profiler.BlacklistAfter,
			BlacklistFor:   s.Profiler.BlacklistFor.D(),
		}
	}
	return sc, nil
}

// Validate checks the document end to end: schema version, mode, and
// everything scenario.Config.Validate rejects (capacity, bottleneck
// references, adversary declarations).
func (s Scenario) Validate() error {
	sc, err := s.Config()
	if err != nil {
		return err
	}
	if len(s.Groups) == 0 {
		return fmt.Errorf("config: scenario %q declares no client groups", s.Name)
	}
	return sc.Validate()
}

// Decode reads one scenario document strictly: unknown fields,
// malformed durations, and trailing data are errors.
func Decode(r io.Reader) (Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return Scenario{}, fmt.Errorf("config: %w", err)
	}
	if dec.More() {
		return Scenario{}, fmt.Errorf("config: trailing data after scenario document")
	}
	return s, nil
}

// Encode renders the canonical byte encoding: two-space indent, struct
// field order, trailing newline. Canonical files re-encode byte-stably
// (the round-trip test pins this for every shipped config).
func Encode(s Scenario) []byte {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		// Only unsupported value kinds can fail here, and the schema has
		// none.
		panic(err)
	}
	return append(b, '\n')
}

// Hash returns the hex SHA-256 of the scenario's canonical encoding —
// the identity BENCH entries and telemetry use to attribute results to
// an exact configuration.
func Hash(s Scenario) string {
	sum := sha256.Sum256(Encode(s))
	return hex.EncodeToString(sum[:])
}

// ShortHash is Hash truncated to 12 hex characters for display.
func ShortHash(s Scenario) string { return Hash(s)[:12] }

// Load reads, strictly decodes, and validates a scenario file from
// disk.
func Load(path string) (Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return Scenario{}, err
	}
	defer f.Close()
	s, err := Decode(f)
	if err != nil {
		return Scenario{}, fmt.Errorf("%s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return Scenario{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Resolve loads a scenario by name the way the commands do: a path
// that exists on disk wins; otherwise the name is looked up in fsys
// (the embedded configs/ set), where the ".json" suffix is optional.
func Resolve(fsys fs.FS, name string) (Scenario, error) {
	s, err := Load(name)
	if err == nil {
		return s, nil
	}
	if !errors.Is(err, fs.ErrNotExist) {
		return Scenario{}, fmt.Errorf("%s: %w", name, err)
	}
	embedded := name
	if !strings.HasSuffix(embedded, ".json") {
		embedded += ".json"
	}
	s, err = LoadFS(fsys, embedded)
	if err != nil {
		return Scenario{}, fmt.Errorf("%s: not a file on disk and not an embedded scenario: %w", name, err)
	}
	return s, nil
}

// LoadFS is Load over an fs.FS (the embedded configs/ file set).
func LoadFS(fsys fs.FS, name string) (Scenario, error) {
	b, err := fs.ReadFile(fsys, name)
	if err != nil {
		return Scenario{}, err
	}
	s, err := Decode(bytes.NewReader(b))
	if err != nil {
		return Scenario{}, fmt.Errorf("%s: %w", name, err)
	}
	if err := s.Validate(); err != nil {
		return Scenario{}, fmt.Errorf("%s: %w", name, err)
	}
	return s, nil
}
