// Package fleetwatch aggregates the telemetry of a fleet of thinner
// fronts — the read-only half of fleet control. It subscribes to each
// front's /telemetry NDJSON stream concurrently, keeps the latest
// snapshot per front, and folds them into a fleet-wide view: total
// ingest absorbed, admissions, evictions, going rates, and how many
// fronts are currently reporting.
//
// A front disconnecting is an expected event, not an error: the
// watcher marks it stale, keeps its last snapshot for the aggregate,
// and redials with the same bounded jittered backoff the payment
// clients use (faults.Backoff), so a front restart rejoins the view
// within a few seconds without operator action.
package fleetwatch

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"speakup/internal/core"
	"speakup/internal/faults"
	"speakup/internal/metrics"
)

// Config tunes a Watcher.
type Config struct {
	// Fronts are the base URLs to watch (e.g. http://127.0.0.1:8080).
	Fronts []string
	// Interval is the telemetry cadence requested from each front
	// (?interval=). Default 1s.
	Interval time.Duration
	// Backoff paces reconnection after a front disconnects.
	Backoff faults.Backoff
	// Client issues the streaming requests. Default: a client with no
	// overall timeout (the streams are long-lived).
	Client *http.Client
	// OnUpdate, if set, observes every state change: each decoded
	// snapshot line and each disconnect. Called from the per-front
	// stream goroutines; keep it fast.
	OnUpdate func(FrontState)
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	return c
}

// FrontState is one front's latest observed state.
type FrontState struct {
	// URL is the front's base URL (the identity fleetwatch keys on).
	URL string `json:"url"`
	// Connected reports whether the telemetry stream is currently up.
	// A false with a non-zero Snapshot means the front reported once
	// and went away; its numbers are stale but still aggregated.
	Connected bool `json:"connected"`
	// Attempts counts connection attempts; Drops counts streams that
	// ended (EOF, reset, refused) after at least one snapshot.
	Attempts uint64 `json:"attempts"`
	Drops    uint64 `json:"drops"`
	// LastErr is the most recent connection/stream error, "" when the
	// stream is healthy.
	LastErr string `json:"last_err,omitempty"`
	// LastSeen is when the last snapshot line was decoded.
	LastSeen time.Time `json:"last_seen"`
	// Health is the front's brownout-ladder state rendered as the
	// /healthz vocabulary ("ok", "stalled", "recovering"; "" before the
	// first snapshot) — the signal rollout soak decisions and human
	// operators read alike.
	Health string `json:"health,omitempty"`
	// Snapshot is the front's latest telemetry line.
	Snapshot metrics.Snapshot `json:"snapshot"`
}

// Aggregate is the fleet-wide fold of every front's latest snapshot.
// Every counter and gauge of Totals is summed; GoingPriceMax is the
// highest current going rate anywhere (the fleet's price ceiling,
// which heterogeneous clients shop against).
type Aggregate struct {
	Fronts    int `json:"fronts"`
	Connected int `json:"connected"`
	// Health rollup: how many reporting fronts currently sit on each
	// rung of the brownout ladder. Healthy + Stalled + Recovering can
	// be less than Fronts (fronts that never reported count nowhere).
	Healthy    int `json:"healthy"`
	Stalled    int `json:"stalled"`
	Recovering int `json:"recovering"`

	metrics.Totals
	GoingPriceMax int64 `json:"going_price_max_bytes"`
}

// Watcher subscribes to a fleet of fronts. Create with New, call
// Start, read States/Aggregate at will, Stop when done.
type Watcher struct {
	cfg Config

	mu     sync.Mutex
	states []FrontState

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// New creates a watcher for cfg.Fronts (it does not dial yet).
func New(cfg Config) *Watcher {
	cfg = cfg.withDefaults()
	w := &Watcher{cfg: cfg, states: make([]FrontState, len(cfg.Fronts))}
	for i, u := range cfg.Fronts {
		w.states[i].URL = u
	}
	return w
}

// Start launches one stream goroutine per front. ctx cancellation (or
// Stop) ends them.
func (w *Watcher) Start(ctx context.Context) {
	ctx, w.cancel = context.WithCancel(ctx)
	for i := range w.cfg.Fronts {
		w.wg.Add(1)
		go func(idx int) {
			defer w.wg.Done()
			w.watch(ctx, idx)
		}(i)
	}
}

// Stop cancels every stream and waits for the goroutines to exit.
func (w *Watcher) Stop() {
	if w.cancel != nil {
		w.cancel()
	}
	w.wg.Wait()
}

// States returns a copy of every front's latest state.
func (w *Watcher) States() []FrontState {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]FrontState, len(w.states))
	copy(out, w.states)
	return out
}

// Aggregate folds the latest snapshots into the fleet view. Fronts
// that have never reported contribute nothing; disconnected fronts
// contribute their last (stale) snapshot, which keeps fleet totals
// monotone across a front bounce.
func (w *Watcher) Aggregate() Aggregate {
	var a Aggregate
	for _, st := range w.States() {
		a.Fronts++
		if st.Connected {
			a.Connected++
		}
		if st.LastSeen.IsZero() {
			continue
		}
		s := st.Snapshot
		switch core.HealthState(s.Health) {
		case core.HealthStalled:
			a.Stalled++
		case core.HealthRecovering:
			a.Recovering++
		default:
			a.Healthy++
		}
		a.Add(&s.Totals)
		a.GoingPriceMax = max(a.GoingPriceMax, s.GoingPrice)
	}
	return a
}

// update mutates front idx's state under the lock and fans the result
// out to OnUpdate.
func (w *Watcher) update(idx int, fn func(*FrontState)) {
	w.mu.Lock()
	fn(&w.states[idx])
	st := w.states[idx]
	w.mu.Unlock()
	if w.cfg.OnUpdate != nil {
		w.cfg.OnUpdate(st)
	}
}

// watch is one front's connect→stream→backoff loop.
func (w *Watcher) watch(ctx context.Context, idx int) {
	// Jitter is wall-clock-seeded: decorrelating a fleet of watchers is
	// the point, determinism is not needed here.
	rng := rand.New(rand.NewSource(time.Now().UnixNano() + int64(idx)))
	attempt := 0
	for ctx.Err() == nil {
		w.update(idx, func(st *FrontState) { st.Attempts++ })
		lines, err := w.streamOnce(ctx, idx)
		if ctx.Err() != nil {
			return
		}
		w.update(idx, func(st *FrontState) {
			st.Connected = false
			if lines > 0 {
				st.Drops++
			}
			if err != nil {
				st.LastErr = err.Error()
			}
		})
		if lines > 0 {
			attempt = 0 // the front was healthy; restart the backoff ladder
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(w.cfg.Backoff.Delay(attempt, rng)):
		}
		attempt++
	}
}

// streamOnce dials front idx's /telemetry and decodes snapshot lines
// until the stream ends. It returns how many lines landed.
func (w *Watcher) streamOnce(ctx context.Context, idx int) (lines int, err error) {
	url := fmt.Sprintf("%s/telemetry?interval=%s", w.cfg.Fronts[idx], w.cfg.Interval)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := w.cfg.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("telemetry: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var snap metrics.Snapshot
		if err := json.Unmarshal(sc.Bytes(), &snap); err != nil {
			return lines, fmt.Errorf("telemetry decode: %w", err)
		}
		lines++
		w.update(idx, func(st *FrontState) {
			st.Connected = true
			st.LastErr = ""
			st.LastSeen = time.Now()
			st.Health = core.HealthState(snap.Health).String()
			st.Snapshot = snap
		})
	}
	return lines, sc.Err()
}
