package main

import (
	"flag"
	"fmt"
	"time"

	"speakup/configs"
	"speakup/internal/config"
)

// docFlags are the flags that write over the run's scenario document.
type docFlags struct {
	scenario  string
	good, bad int
	bw        float64
	attack    string
	aggro     float64
	post      int
	duration  time.Duration
	transport string
}

// register declares the document flags on fs.
func (f *docFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&f.scenario, "scenario", "", "scenario file declaring the client groups (disk path or embedded configs/ name; default live_default); explicit flags write over it")
	fs.IntVar(&f.good, "good", 3, "client count of the scenario's only good group")
	fs.IntVar(&f.bad, "bad", 3, "client count of the scenario's only bad group")
	fs.Float64Var(&f.bw, "bw", 2e6, "per-client upload bandwidth (bits/s) of every group")
	fs.StringVar(&f.attack, "attack", "", "adversary profile for every bad group (see -attack list)")
	fs.Float64Var(&f.aggro, "aggro", 1, "attack aggressiveness scale of every bad group (with a strategy)")
	fs.IntVar(&f.post, "post", 1<<20, "payment POST size (bytes)")
	fs.DurationVar(&f.duration, "duration", 30*time.Second, "run length")
	fs.StringVar(&f.transport, "transport", "http", "front to drive: http (GET/POST) or wire (binary framed payment transport)")
}

// resolve builds the run as one scenario document: the -scenario file,
// or the embedded live_default, with each flag in set (the flags the
// user gave) written over it, the framing the document leaves unset
// filled from the flag defaults, and the result validated. The
// resolved document is the run's identity: its hash is the summary's
// config_hash.
func (f docFlags) resolve(set map[string]bool) (config.Scenario, error) {
	name := f.scenario
	if name == "" {
		name = "live_default"
	}
	doc, err := config.Resolve(configs.FS, name)
	if err != nil {
		return doc, fmt.Errorf("scenario: %w", err)
	}
	if doc.Name == "" {
		doc.Name = name
	}
	if set["good"] {
		if err := setCount(&doc, true, f.good); err != nil {
			return doc, err
		}
	}
	if set["bad"] {
		if err := setCount(&doc, false, f.bad); err != nil {
			return doc, err
		}
	}
	for i := range doc.Groups {
		g := &doc.Groups[i]
		if set["bw"] || g.Bandwidth == 0 {
			g.Bandwidth = f.bw
		}
		if !g.Good && set["attack"] {
			g.Strategy = f.attack
		}
		if !g.Good && set["aggro"] {
			g.Aggressiveness = f.aggro
		}
	}
	if doc.Sizes == nil {
		doc.Sizes = &config.Sizes{}
	}
	if set["post"] || doc.Sizes.Post == 0 {
		doc.Sizes.Post = f.post
	}
	if set["duration"] || doc.Duration == 0 {
		doc.Duration = config.Duration(f.duration)
	}
	if set["transport"] {
		doc.Transport = f.transport
	}
	return doc, doc.Validate()
}

// setCount sets the client count of the document's only good (or
// bad) group; -good and -bad cannot say which of several they mean.
func setCount(doc *config.Scenario, good bool, n int) error {
	flagName, kind := "-bad", "bad"
	if good {
		flagName, kind = "-good", "good"
	}
	var only *config.ClientGroup
	for i := range doc.Groups {
		if doc.Groups[i].Good != good {
			continue
		}
		if only != nil {
			return fmt.Errorf("%s is ambiguous: scenario %q declares more than one %s group (%q, %q); set their counts in the file",
				flagName, doc.Name, kind, only.Name, doc.Groups[i].Name)
		}
		only = &doc.Groups[i]
	}
	if only == nil {
		return fmt.Errorf("%s: scenario %q declares no %s group", flagName, doc.Name, kind)
	}
	only.Count = n
	return nil
}
