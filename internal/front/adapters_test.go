package front_test

import (
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"testing"
	"time"

	"speakup/internal/appsim"
	"speakup/internal/clients"
	"speakup/internal/core"
	"speakup/internal/netsim"
	"speakup/internal/server"
	"speakup/internal/sim"
	"speakup/internal/simclock"
	"speakup/internal/tcpsim"
	"speakup/internal/web"
)

// The script both adapters run: request 1 occupies the origin, the
// origin stalls, request 2 arrives as an initial request, the origin
// recovers and finishes 1, and request 3 arrives at a free origin.
// Both must answer ok, shed, ok.
var wantVerdicts = []string{"ok", "shed", "ok"}

// once is a client that issues one request at a fixed time and pays
// the protocol default when asked.
type once struct {
	at     time.Duration
	issued bool
}

func (p *once) Gap(time.Duration, *rand.Rand) time.Duration {
	if p.issued {
		return time.Hour
	}
	p.issued = true
	return p.at
}
func (*once) Window(time.Duration) int                       { return 1 }
func (*once) PostSize(_ time.Duration, _ int64, def int) int { return def }

func TestAdaptersAgreeAcrossABrownout(t *testing.T) {
	t.Run("simulator", func(t *testing.T) {
		if got := simVerdicts(); !slices.Equal(got, wantVerdicts) {
			t.Fatalf("simulator verdicts %v, want %v", got, wantVerdicts)
		}
	})
	t.Run("http", func(t *testing.T) {
		if got := httpVerdicts(t); !slices.Equal(got, wantVerdicts) {
			t.Fatalf("HTTP verdicts %v, want %v", got, wantVerdicts)
		}
	})
}

// simVerdicts runs the script through the simulated-TCP adapter. A
// request that spent time paying was asked to pay, whatever came
// next; otherwise one served was admitted (ok) and one failed was
// shed.
func simVerdicts() []string {
	loop := sim.NewLoop(1)
	n := netsim.New(loop)
	sw := n.AddNode("switch", nil)
	tn := n.AddNode("thinner", nil)
	n.Connect(sw, tn, 100e6, 250*time.Microsecond, 256*1500)
	var cns []netsim.NodeID
	for range 2 {
		cn := n.AddNode("client", nil)
		n.Connect(cn, sw, 2e6, 250*time.Microsecond, 50*1500)
		cns = append(cns, cn)
	}
	n.ComputeRoutes()
	clock := simclock.New(loop)
	srv := server.New(clock, server.Config{Capacity: 1, Seed: 1}) // ~1 s per request
	app := appsim.NewThinnerApp(tcpsim.NewStack(n, tn, tcpsim.Options{}), clock, srv,
		appsim.ThinnerConfig{Mode: appsim.ModeAuction})

	verdict := map[core.RequestID]string{}
	var nextID core.RequestID
	issue := func(cn netsim.NodeID, at ...time.Duration) {
		for _, t := range at {
			p := &once{at: t}
			wl := clients.New(clock, clients.Config{Pacer: p}, func() core.RequestID { nextID++; return nextID })
			c := appsim.NewClientApp(tcpsim.NewStack(n, cn, tcpsim.Options{}), wl, tn, appsim.Sizes{}, appsim.ClientAppConfig{Payer: p})
			c.OnOutcome = func(o appsim.RequestOutcome) {
				switch {
				case o.PayTime > 0:
					verdict[o.ID] = "pay"
				case o.Served:
					verdict[o.ID] = "ok"
				default:
					verdict[o.ID] = "shed"
				}
			}
			wl.Start()
		}
	}
	issue(cns[0], 0)
	issue(cns[1], 400*time.Millisecond)
	issue(cns[1], 3*time.Second)
	// The fault plan's origin stall, 200-600 ms: request 1 holds the origin.
	loop.Schedule(200*time.Millisecond, func() {
		srv.Stall(400 * time.Millisecond)
		app.Auction().SetOriginStalled(true)
	})
	loop.Schedule(600*time.Millisecond, func() { app.Auction().SetOriginStalled(false) })
	loop.Run(10 * time.Second)
	return []string{verdict[1], verdict[2], verdict[3]}
}

// httpVerdicts runs the script through the HTTP adapter: the origin
// hangs on request 1 past OriginStallAfter, which declares the stall.
func httpVerdicts(t *testing.T) []string {
	release := make(chan struct{})
	front := web.NewFront(web.OriginFunc(func(id core.RequestID) ([]byte, error) {
		if id == 1 {
			<-release
		}
		return []byte("ok"), nil
	}), web.Config{OriginStallAfter: 100 * time.Millisecond})
	hs := httptest.NewServer(front)
	defer func() {
		hs.Close()
		front.Close()
	}()
	codes := map[int]string{http.StatusOK: "ok", http.StatusServiceUnavailable: "shed", http.StatusPaymentRequired: "pay"}
	get := func(id int) string {
		resp, err := http.Get(hs.URL + "/request?id=" + strconv.Itoa(id))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return codes[resp.StatusCode]
	}

	first := make(chan string, 1)
	go func() {
		resp, err := http.Get(hs.URL + "/request?id=1")
		if err != nil {
			first <- err.Error()
			return
		}
		resp.Body.Close()
		first <- codes[resp.StatusCode]
	}()
	deadline := time.Now().Add(5 * time.Second)
	for front.Health().Origin != "stalled" {
		if time.Now().After(deadline) {
			t.Fatal("the origin stall was never declared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	second := get(2)
	close(release) // the origin recovers and finishes request 1
	got := []string{<-first, second}
	for front.Health().Origin == "stalled" {
		time.Sleep(5 * time.Millisecond)
	}
	return append(got, get(3))
}
