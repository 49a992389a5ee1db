package main

import (
	"fmt"
	"time"

	"speakup/internal/adversary"
	"speakup/internal/config"
)

// class is one resolved client class: its size, per-client upload
// bandwidth, and the strategy each of its clients runs.
type class struct {
	n    int
	bw   float64
	spec adversary.Spec
}

// workload is the resolved run: flag defaults, overridden by a
// scenario file, overridden by explicitly set flags.
type workload struct {
	scenario  string // the file's name; "" when built from flags
	good, bad class
	// attack names the bad class's adversary profile and aggro its
	// scale; "" runs the §7.1 Poisson flood.
	attack    string
	aggro     float64
	post      int
	dur       time.Duration
	transport string
}

// resolve merges the flag values, the scenario file doc (nil when
// none) and the flags the user set explicitly into one workload; flags
// carries no class specs, resolve fills them in. Good
// groups set the good class's count, rate, window and bandwidth; the
// first bad group sets the bad class's, including its strategy. A
// class without a strategy runs poisson at §7.1's λ/w unless the file
// overrides them; a strategy class takes only the λ/w the file sets
// and leaves the rest to the profile's defaults, as the simulator does.
func resolve(flags workload, doc *config.Scenario, explicit map[string]bool) (workload, error) {
	w := flags
	var goodLambda, badLambda float64 // 0 = not set by the file
	var goodWindow, badWindow int
	if doc != nil {
		w.scenario = doc.Name
		w.good.n, w.bad.n = 0, 0
		var g, b *config.ClientGroup
		for i := range doc.Groups {
			grp := &doc.Groups[i]
			if grp.Good {
				w.good.n += grp.Count
				if g == nil {
					g = grp
				}
			} else {
				w.bad.n += grp.Count
				if b == nil {
					b = grp
				}
			}
		}
		if g != nil {
			goodLambda, goodWindow = g.Lambda, g.Window
			if g.Bandwidth != 0 {
				w.good.bw = g.Bandwidth
			}
		}
		if b != nil {
			badLambda, badWindow = b.Lambda, b.Window
			if b.Bandwidth != 0 {
				w.bad.bw = b.Bandwidth
			}
			if b.Strategy != "" {
				w.attack = b.Strategy
				if b.Aggressiveness != 0 {
					w.aggro = b.Aggressiveness
				}
			}
		}
		if doc.Sizes != nil && doc.Sizes.Post != 0 {
			w.post = doc.Sizes.Post
		}
		if doc.Duration != 0 {
			w.dur = doc.Duration.D()
		}
		if doc.Transport != "" {
			w.transport = doc.Transport
		}
		if explicit["good"] {
			w.good.n = flags.good.n
		}
		if explicit["bad"] {
			w.bad.n = flags.bad.n
		}
		if explicit["bw"] {
			w.good.bw, w.bad.bw = flags.good.bw, flags.bad.bw
		}
		if explicit["post"] {
			w.post = flags.post
		}
		if explicit["duration"] {
			w.dur = flags.dur
		}
		if explicit["attack"] {
			w.attack = flags.attack
		}
		if explicit["aggro"] {
			w.aggro = flags.aggro
		}
		if explicit["transport"] {
			w.transport = flags.transport
		}
	}
	if w.transport != "http" && w.transport != "wire" {
		return w, fmt.Errorf("-transport must be http or wire, got %q", w.transport)
	}
	w.good.spec = poisson(goodLambda, goodWindow, 2, 1)
	if w.attack == "" {
		w.bad.spec = poisson(badLambda, badWindow, 40, 20)
		if w.aggro != 1 {
			return w, fmt.Errorf("-aggro %g has no effect without an attack profile (the default bad clients are fixed Poisson λ=%g, w=%d)",
				w.aggro, w.bad.spec.Lambda, w.bad.spec.Window)
		}
	} else {
		w.bad.spec = adversary.Spec{Name: w.attack, Aggressiveness: w.aggro, Lambda: badLambda, Window: badWindow}
	}
	for _, c := range []class{w.good, w.bad} {
		if err := c.spec.Validate(); err != nil {
			return w, err
		}
	}
	return w, nil
}

// poisson is the §7.1 client process with the given λ/w, each falling
// back to its default when zero.
func poisson(lambda float64, window int, defLambda float64, defWindow int) adversary.Spec {
	if lambda == 0 {
		lambda = defLambda
	}
	if window == 0 {
		window = defWindow
	}
	return adversary.Spec{Name: "poisson", Lambda: lambda, Window: window}
}

// effective is the run's identity: the resolved workload as one
// scenario document, built the same way whether it came from a file or
// from flags, so identical effective runs hash alike. Each class
// records the λ/w its spec carries, so a strategy class leaves unset
// overrides at zero, which the simulator reads as the profile's
// defaults.
func (w workload) effective() config.Scenario {
	doc := config.Scenario{
		Version:  config.Version,
		Name:     w.scenario,
		Duration: config.Duration(w.dur),
		Mode:     "auction",
		Groups: []config.ClientGroup{
			{Name: "good", Count: w.good.n, Good: true, Lambda: w.good.spec.Lambda, Window: w.good.spec.Window, Bandwidth: w.good.bw},
			{Name: "bad", Count: w.bad.n, Lambda: w.bad.spec.Lambda, Window: w.bad.spec.Window, Bandwidth: w.bad.bw},
		},
		Sizes: &config.Sizes{Post: w.post},
	}
	if w.attack != "" {
		doc.Groups[1].Strategy = w.attack
		doc.Groups[1].Aggressiveness = w.aggro
	}
	if w.transport == "wire" {
		// "http" stays the schema's empty default so pre-wire runs keep
		// their hashes.
		doc.Transport = w.transport
	}
	return doc
}
