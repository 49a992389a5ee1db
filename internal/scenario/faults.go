package scenario

import (
	"strconv"
	"strings"
	"time"

	"speakup/internal/appsim"
	"speakup/internal/faults"
	"speakup/internal/netsim"
	"speakup/internal/server"
	"speakup/internal/sim"
)

// faultTargets maps the fault plan's symbolic targets onto the links
// Run built. Access links are keyed by (defaulted) group name; every
// entry holds both directions of each duplex pair.
type faultTargets struct {
	trunk      []*netsim.Link
	access     map[string][]*netsim.Link
	bottleneck [][]*netsim.Link
}

func (t faultTargets) resolve(target string) []*netsim.Link {
	if target == faults.TargetTrunk {
		return t.trunk
	}
	if g, ok := strings.CutPrefix(target, faults.TargetAccessPrefix); ok {
		return t.access[g]
	}
	if s, ok := strings.CutPrefix(target, faults.TargetBottleneckPrefix); ok {
		n, _ := strconv.Atoi(s)
		if n >= 1 && n <= len(t.bottleneck) {
			return t.bottleneck[n-1]
		}
	}
	return nil // Validate rejected anything unresolvable before Run
}

// scheduleFaults arms the plan on the event loop. Everything here is
// a cold path: closures per event are fine, and each link fault draws
// from its own per-event seeded RNG so the plan is a pure function of
// (scenario seed, event index, event seed). Overlapping windows on
// the same link are last-writer-wins; each revert clears the link.
func scheduleFaults(loop *sim.Loop, cfg Config, t faultTargets, srv *server.Server, thApp *appsim.ThinnerApp) {
	stalled := func(bool) {} // the baselines have no brownout ladder
	if th := thApp.Auction(); th != nil {
		stalled = th.SetOriginStalled
	}
	for i, ev := range cfg.Faults {
		ev := ev
		seed := cfg.Seed ^ (int64(i+1) * 0x6a09e667f3bcc909) ^ ev.Seed
		switch ev.Kind {
		case faults.LinkLoss, faults.LinkJitter, faults.Partition:
			links := t.resolve(ev.Target)
			var fs netsim.FaultState
			switch ev.Kind {
			case faults.LinkLoss:
				fs.Loss = ev.Magnitude
			case faults.LinkJitter:
				fs.Jitter = time.Duration(ev.Magnitude * float64(time.Second))
			case faults.Partition:
				fs.Down = true
			}
			loop.Schedule(ev.At, func() {
				for k, l := range links {
					l.SetFault(fs, seed+int64(k))
				}
			})
			loop.Schedule(ev.At+ev.Duration, func() {
				for _, l := range links {
					l.ClearFault()
				}
			})
		case faults.OriginStall:
			loop.Schedule(ev.At, func() {
				srv.Stall(ev.Duration)
				stalled(true)
			})
			loop.Schedule(ev.At+ev.Duration, func() { stalled(false) })
		case faults.OriginCrash:
			loop.Schedule(ev.At, func() {
				// Brown out first: Crash fires srv.Failed, whose
				// ServerDone must see HealthStalled and defer the
				// auction until the origin restarts.
				stalled(true)
				srv.Crash(ev.Duration)
			})
			loop.Schedule(ev.At+ev.Duration, func() { stalled(false) })
		}
	}
}
