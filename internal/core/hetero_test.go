package core

import (
	"testing"
	"time"
)

// hetHarness wires a §5 thinner (a Thinner with a Quantum) to a
// scripted fake server. Like the simulator's server, it resumes an
// admitted request it holds suspended and starts any other; a wasted
// eviction of a suspended request is its abort.
type hetHarness struct {
	clock     *fakeClock
	th        *Thinner
	active    RequestID
	hasActive bool
	suspended map[RequestID]bool
	starts    []RequestID
	suspends  []RequestID
	resumes   []RequestID
	aborts    []RequestID
	done      []RequestID
	donePaid  map[RequestID]int64
}

func newHetHarness(tau time.Duration) *hetHarness {
	h := &hetHarness{
		clock:     &fakeClock{},
		suspended: make(map[RequestID]bool),
		donePaid:  make(map[RequestID]int64),
	}
	h.th = NewThinner(h.clock, Config{Quantum: tau})
	h.th.Admit = func(id RequestID, _ int64) {
		h.active, h.hasActive = id, true
		if h.suspended[id] {
			delete(h.suspended, id)
			h.resumes = append(h.resumes, id)
			return
		}
		h.starts = append(h.starts, id)
	}
	h.th.Suspend = func(id RequestID) {
		h.hasActive = false
		h.suspended[id] = true
		h.suspends = append(h.suspends, id)
	}
	h.th.Evict = func(id RequestID, paid int64, wasted bool) {
		if !wasted {
			h.hasActive = false
			h.done = append(h.done, id)
			h.donePaid[id] = paid
			return
		}
		if h.suspended[id] {
			delete(h.suspended, id)
			h.aborts = append(h.aborts, id)
		}
	}
	return h
}

func TestHeteroAdmitsTopPayerOnTick(t *testing.T) {
	h := newHetHarness(100 * time.Millisecond)
	h.th.RequestArrived(1)
	h.th.RequestArrived(2)
	h.th.PaymentReceived(1, 100)
	h.th.PaymentReceived(2, 900)
	h.clock.Advance(100 * time.Millisecond)
	if len(h.starts) != 1 || h.starts[0] != 2 {
		t.Fatalf("starts = %v, want [2]", h.starts)
	}
	// Winner's payment was charged (zeroed).
	if h.th.Table().Balance(2) != 0 {
		t.Fatal("winner's quantum payment not charged")
	}
	// Loser's balance persists.
	if h.th.Table().Balance(1) != 100 {
		t.Fatal("loser's balance lost")
	}
}

func TestHeteroActiveKeepsServerWhilePayingMore(t *testing.T) {
	h := newHetHarness(100 * time.Millisecond)
	h.th.RequestArrived(1)
	h.th.PaymentReceived(1, 500)
	h.clock.Advance(100 * time.Millisecond) // 1 admitted
	// Each quantum 1 pays 300 while challenger 2 trickles 50; the
	// challenger's accumulated bid (max 250 over 5 quanta) never
	// exceeds the active request's per-quantum payment.
	h.th.RequestArrived(2)
	for i := 0; i < 5; i++ {
		h.th.PaymentReceived(1, 300)
		h.th.PaymentReceived(2, 50)
		h.clock.Advance(100 * time.Millisecond)
	}
	if len(h.suspends) != 0 {
		t.Fatalf("active request suspended despite outbidding: %v", h.suspends)
	}
	// 2's payments accumulate across lost quanta (the paper's rule:
	// only the *winner's* payment is zeroed).
	if h.th.Table().Balance(2) != 250 {
		t.Fatalf("challenger balance = %d, want 250", h.th.Table().Balance(2))
	}
}

func TestHeteroSuspendAndResume(t *testing.T) {
	h := newHetHarness(100 * time.Millisecond)
	h.th.RequestArrived(1)
	h.th.PaymentReceived(1, 100)
	h.clock.Advance(100 * time.Millisecond) // 1 active
	h.th.RequestArrived(2)
	h.th.PaymentReceived(2, 1000) // outbids 1 (who pays nothing more)
	h.clock.Advance(100 * time.Millisecond)
	if len(h.suspends) != 1 || h.suspends[0] != 1 {
		t.Fatalf("suspends = %v, want [1]", h.suspends)
	}
	if len(h.starts) != 2 || h.starts[1] != 2 {
		t.Fatalf("starts = %v, want [1 2]", h.starts)
	}
	// Now 1 outbids 2.
	h.th.PaymentReceived(1, 2000)
	h.clock.Advance(100 * time.Millisecond)
	if len(h.suspends) != 2 || h.suspends[1] != 2 {
		t.Fatalf("suspends = %v, want [1 2]", h.suspends)
	}
	if len(h.resumes) != 1 || h.resumes[0] != 1 {
		t.Fatalf("resumes = %v, want [1] (RESUME, not Start)", h.resumes)
	}
}

func TestHeteroAbortAfterLongSuspension(t *testing.T) {
	h := newHetHarness(100 * time.Millisecond)
	h.th.RequestArrived(1)
	h.th.PaymentReceived(1, 100)
	h.clock.Advance(100 * time.Millisecond) // 1 active
	h.th.RequestArrived(2)
	h.th.PaymentReceived(2, 1000)
	h.clock.Advance(100 * time.Millisecond) // 1 suspended, 2 active
	// 2 keeps outbidding for >30s; 1 stays suspended and gets aborted.
	for i := 0; i < 310; i++ {
		h.th.PaymentReceived(2, 1000)
		h.clock.Advance(100 * time.Millisecond)
	}
	found := false
	for _, id := range h.aborts {
		if id == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("request 1 not aborted after 30s suspension; aborts=%v", h.aborts)
	}
}

func TestHeteroServerDoneFreesAndAdmitsNext(t *testing.T) {
	h := newHetHarness(100 * time.Millisecond)
	h.th.RequestArrived(1)
	h.th.PaymentReceived(1, 100)
	h.clock.Advance(100 * time.Millisecond)
	h.th.RequestArrived(2)
	h.th.PaymentReceived(2, 50)
	h.th.ServerDone(1)
	if len(h.done) != 1 || h.done[0] != 1 {
		t.Fatalf("done = %v", h.done)
	}
	// ServerDone triggers an immediate tick: 2 admitted without
	// waiting for the next quantum boundary.
	if len(h.starts) != 2 || h.starts[1] != 2 {
		t.Fatalf("starts = %v, want [1 2]", h.starts)
	}
	if h.donePaid[1] != 100 {
		t.Fatalf("total charged to 1 = %d, want 100", h.donePaid[1])
	}
}

func TestHeteroChargesAccumulateAcrossQuanta(t *testing.T) {
	h := newHetHarness(100 * time.Millisecond)
	h.th.RequestArrived(1)
	h.th.PaymentReceived(1, 100)
	h.clock.Advance(100 * time.Millisecond) // charged 100
	for i := 0; i < 3; i++ {
		h.th.PaymentReceived(1, 100)
		h.clock.Advance(100 * time.Millisecond) // charged 100 each tick
	}
	h.th.ServerDone(1)
	if h.donePaid[1] != 400 {
		t.Fatalf("lifetime charge = %d, want 400", h.donePaid[1])
	}
}

func TestHeteroHardRequestsPayProportionally(t *testing.T) {
	// Two clients with equal bandwidth; client 2's request takes 5x as
	// many quanta. Over the run, each quantum of service costs one
	// auction win, so 2 pays ~5x what 1 pays in total.
	h := newHetHarness(100 * time.Millisecond)
	h.th.RequestArrived(1)
	h.th.RequestArrived(2)
	quanta1, quanta2 := 2, 10
	var served1, served2 int
	// Both pay the same rate every quantum.
	for i := 0; i < 60; i++ {
		h.th.PaymentReceived(1, 100)
		h.th.PaymentReceived(2, 100)
		h.clock.Advance(100 * time.Millisecond)
		if id, ok := h.active, h.hasActive; ok {
			switch id {
			case 1:
				served1++
				if served1 == quanta1 {
					h.th.ServerDone(1)
				}
			case 2:
				served2++
				if served2 == quanta2 {
					h.th.ServerDone(2)
				}
			}
		}
	}
	if h.donePaid[1] == 0 || h.donePaid[2] == 0 {
		t.Fatalf("both must finish: paid=%v servedQuanta=%d/%d", h.donePaid, served1, served2)
	}
	ratio := float64(h.donePaid[2]) / float64(h.donePaid[1])
	if ratio < 3 || ratio > 7 {
		t.Fatalf("hard request paid %.1fx the easy one, want ~5x", ratio)
	}
}

func TestHeteroOrphanPaymentEvicted(t *testing.T) {
	h := newHetHarness(100 * time.Millisecond)
	h.th.PaymentReceived(9, 500) // no request ever follows
	h.clock.Advance(15 * time.Second)
	if h.th.Table().Contains(9) {
		t.Fatal("orphan payment channel not evicted")
	}
	if h.th.Stats().WastedBytes != 500 {
		t.Fatalf("wasted = %d, want 500", h.th.Stats().WastedBytes)
	}
}

func TestHeteroIdleServerAdmitsWithinTau(t *testing.T) {
	h := newHetHarness(100 * time.Millisecond)
	h.clock.Advance(time.Second) // idle ticks with no contenders
	h.th.RequestArrived(1)
	h.clock.Advance(100 * time.Millisecond)
	if len(h.starts) != 1 {
		t.Fatalf("idle-server admission failed: %v", h.starts)
	}
}

// TestHeteroActiveNotEvictedAsOrphan serves one request uncontested
// for longer than OrphanTimeout while it keeps paying: the active
// request is being served, not orphaned, so nothing is evicted and its
// lifetime charge includes every byte it paid.
func TestHeteroActiveNotEvictedAsOrphan(t *testing.T) {
	h := newHetHarness(100 * time.Millisecond)
	h.th.RequestArrived(1)
	h.th.PaymentReceived(1, 100)
	h.clock.Advance(100 * time.Millisecond) // 1 admitted, charged 100
	for i := 0; i < 150; i++ {              // 15s, past the 10s OrphanTimeout
		h.th.PaymentReceived(1, 10)
		h.clock.Advance(100 * time.Millisecond)
	}
	h.th.ServerDone(1)
	if ev := h.th.Stats().Evicted; ev != 0 {
		t.Fatalf("evicted = %d, want 0 (the active request is no orphan)", ev)
	}
	if h.donePaid[1] != 1600 {
		t.Fatalf("lifetime charge = %d, want 1600", h.donePaid[1])
	}
}
