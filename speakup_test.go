package speakup

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestSimulatePublicAPI(t *testing.T) {
	res := Simulate(Scenario{
		Seed:     1,
		Duration: 30 * time.Second,
		Capacity: 20,
		Mode:     ModeAuction,
		Groups: []ClientGroup{
			{Count: 5, Good: true},
			{Count: 5, Good: false},
		},
	})
	if res.GoodAllocation < 0.3 || res.GoodAllocation > 0.7 {
		t.Fatalf("good allocation = %.3f, want ~0.5", res.GoodAllocation)
	}
	if res.ServedGood == 0 || res.ServedBad == 0 {
		t.Fatal("nothing served")
	}
}

func TestSimulateModesDiffer(t *testing.T) {
	base := Scenario{
		Seed: 2, Duration: 20 * time.Second, Capacity: 20,
		Groups: []ClientGroup{{Count: 3, Good: true}, {Count: 3, Good: false}},
	}
	on := base
	on.Mode = ModeAuction
	off := base
	off.Mode = ModeOff
	if Simulate(on).GoodAllocation <= Simulate(off).GoodAllocation {
		t.Fatal("speak-up did not improve the good clients' share")
	}
}

func TestSweepPublicAPI(t *testing.T) {
	var g SweepGrid
	for _, seed := range []int64{1, 2, 3, 4} {
		g.Add("seed", Scenario{
			Seed: seed, Duration: 5 * time.Second, Capacity: 20,
			Mode:   ModeAuction,
			Groups: []ClientGroup{{Count: 2, Good: true}, {Count: 2, Good: false}},
		})
	}
	rs := SweepEngine{Workers: 4}.Sweep(g.Runs())
	if len(rs) != 4 {
		t.Fatalf("got %d results", len(rs))
	}
	for i, r := range rs {
		if r.Index != i || r.Result == nil || r.Result.Events == 0 {
			t.Fatalf("cell %d malformed: %+v", i, r)
		}
	}
	if SweepSummary("t", rs).String() == "" {
		t.Fatal("empty summary")
	}
}

func TestLiveFrontPublicAPI(t *testing.T) {
	served := 0
	origin := OriginFunc(func(id RequestID) ([]byte, error) {
		served++
		return []byte("hello"), nil
	})
	front := NewFront(origin, FrontConfig{})
	defer front.Close()
	srv := httptest.NewServer(front)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/request?id=7")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "hello" || served != 1 {
		t.Fatalf("origin not reached: %q served=%d", body, served)
	}
}

func TestCoreBuildingBlocksPublicAPI(t *testing.T) {
	bt := NewBidTable(1)
	bt.Credit(1, 100, 0)
	bt.MarkEligible(1, 0)
	if id, paid, ok := bt.Winner(); !ok || id != 1 || paid != 100 {
		t.Fatalf("bid table via public API broken: %v %v %v", id, paid, ok)
	}
	pt := NewPassThrough()
	admitted := false
	pt.Admit = func(id RequestID) { admitted = true }
	pt.RequestArrived(9)
	if !admitted {
		t.Fatal("pass-through did not admit")
	}
}
