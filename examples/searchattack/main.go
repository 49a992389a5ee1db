// Search-engine attack: heterogeneous request difficulty (paper §5),
// with the attackers declared through the adversary suite.
//
// The paper's intro motivates speak-up with attacks that issue
// computationally expensive requests — e.g. bots sending search
// queries that hammer the back-end. Here good clients send cheap
// queries (50 ms of server time) while the bots run the "mimic"
// adversary strategy: good-client impersonation (the §8.1 smart bots
// that fly under rate-profiling radar) at 3x aggressiveness, each
// query intentionally 10x-hard (Work). A thinner that charges per
// *request* still loses most of the server's time to them; the §5
// quantum scheduler charges per 50 ms *quantum* of service —
// suspending the active request whenever a contender outbids it — so
// hard requests cost ten times as much and the bots' time share
// collapses to (at most) their bandwidth share.
//
// Swap the Strategy name to explore the rest of the registry —
// "defector" bots additionally refuse to pay full price, "onoff" bots
// pulse — the frontier across all of them is `go run ./cmd/repro
// -experiment adversary`.
//
// Run with: go run ./examples/searchattack
package main

import (
	"fmt"
	"time"

	"speakup"
)

func main() {
	easy := 50 * time.Millisecond
	groups := []speakup.ClientGroup{
		{Name: "searchers", Count: 10, Good: true, Work: easy},
		// Mimic at 3x: λ=6, w=3 — looks like an eager human, burns 500ms
		// of server time per query.
		{Name: "bots", Count: 10, Strategy: "mimic", Aggressiveness: 3, Work: 10 * easy},
	}
	fmt.Printf("search-engine attack: %s\n", speakup.AdversaryDoc("mimic"))
	fmt.Println("bots send 10x-expensive queries at equal bandwidth")
	fmt.Println()
	for _, tc := range []struct {
		label   string
		mode    speakup.Mode
		quantum time.Duration
	}{
		{"per-request auction (§3.3)", speakup.ModeAuction, 0},
		{"per-quantum auction (§5)  ", speakup.ModeHetero, easy},
	} {
		res := speakup.Simulate(speakup.Scenario{
			Seed:     7,
			Duration: 60 * time.Second,
			Capacity: 20, // easy requests per second
			Mode:     tc.mode,
			Thinner:  speakup.ThinnerConfig{Quantum: tc.quantum},
			Groups:   groups,
		})
		good, bad := res.Groups[0], res.Groups[1]
		total := good.ServedWork + bad.ServedWork
		share := 0.0
		if total > 0 {
			share = float64(good.ServedWork) / float64(total)
		}
		fmt.Printf("%s  good share of server TIME %.2f  (queries served: %d good / %d bot)\n",
			tc.label, share, good.Served, bad.Served)
	}
	fmt.Println()
	fmt.Println("Charging per quantum makes each hard query win ~10 auctions, so the")
	fmt.Println("bots' expensive requests no longer buy a disproportionate time share.")
}
