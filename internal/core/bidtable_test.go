package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestBidTableCreditAndWinner(t *testing.T) {
	bt := NewBidTable(8)
	bt.Credit(1, 100, 0)
	bt.Credit(2, 500, 0)
	bt.Credit(3, 500, 0)
	if _, _, ok := bt.Winner(); ok {
		t.Fatal("no eligible channels, yet a winner")
	}
	bt.MarkEligible(2, 0)
	bt.MarkEligible(3, 0)
	id, paid, ok := bt.Winner()
	if !ok || id != 2 || paid != 500 {
		t.Fatalf("winner = %d/%d/%v, want 2/500 (tie to lowest id)", id, paid, ok)
	}
	bt.Credit(3, 1, 0)
	if id, paid, _ = bt.Winner(); id != 3 || paid != 501 {
		t.Fatalf("winner after top-up = %d/%d, want 3/501", id, paid)
	}
	if bt.Balance(1) != 100 || !bt.Contains(1) {
		t.Fatal("orphan channel lost")
	}
	if bt.Eligible() != 2 || bt.Size() != 3 {
		t.Fatalf("eligible=%d size=%d, want 2/3", bt.Eligible(), bt.Size())
	}
}

func TestBidTableRemoveSettlesState(t *testing.T) {
	bt := NewBidTable(4)
	c := bt.Channel(7, 0)
	c.Credit(250, 0)
	bt.MarkEligible(7, 0)
	if c.State() != ChanActive {
		t.Fatal("fresh channel not active")
	}
	if paid := bt.Remove(7, ChanAdmitted); paid != 250 {
		t.Fatalf("removed paid = %d, want 250", paid)
	}
	if c.State() != ChanAdmitted {
		t.Fatalf("state = %v, want admitted", c.State())
	}
	if bt.Contains(7) || bt.Eligible() != 0 {
		t.Fatal("channel not removed")
	}
	// Credits after settle are dropped, and a second settle cannot
	// overwrite the verdict.
	c.Credit(1000, 0)
	if c.Paid() != 250 {
		t.Fatalf("post-settle credit accepted: %d", c.Paid())
	}
	if bt.Remove(7, ChanEvicted); c.State() != ChanAdmitted {
		t.Fatal("second settle overwrote the verdict")
	}
	// A new POST for the same id opens a fresh, active channel.
	c2 := bt.Channel(7, 0)
	if c2 == c || c2.State() != ChanActive || c2.Paid() != 0 {
		t.Fatal("stale channel resurrected")
	}
}

func TestBidTableWinnerAcrossShards(t *testing.T) {
	// One channel per shard, so the auction must compare shard maxima.
	bt := NewBidTable(16)
	for i := 1; i <= 64; i++ {
		bt.Credit(RequestID(i), int64(i), 0)
		bt.MarkEligible(RequestID(i), 0)
	}
	id, paid, ok := bt.Winner()
	if !ok || id != 64 || paid != 64 {
		t.Fatalf("winner = %d/%d, want 64/64", id, paid)
	}
	// Remove the top repeatedly: the table must always surface the
	// next-highest, exercising stale-hint refresh on dirty shards.
	for want := int64(64); want >= 1; want-- {
		id, paid, ok := bt.Winner()
		if !ok || paid != want || id != RequestID(want) {
			t.Fatalf("winner = %d/%d/%v, want %d", id, paid, ok, want)
		}
		bt.Remove(id, ChanAdmitted)
	}
	if _, _, ok := bt.Winner(); ok {
		t.Fatal("drained table still has a winner")
	}
}

func TestBidTableOrphansAndInactive(t *testing.T) {
	bt := NewBidTable(4)
	bt.Credit(1, 10, 1*time.Second) // orphan, created t=1s
	bt.Credit(2, 10, 5*time.Second) // orphan, created t=5s
	bt.Credit(3, 10, 1*time.Second)
	bt.MarkEligible(3, 1*time.Second) // eligible, last pay t=1s
	bt.MarkEligible(4, 1*time.Second)
	bt.Credit(4, 1, 9*time.Second) // eligible, paid again at t=9s

	ids := bt.DueOrphans(nil, 2*time.Second)
	if !slices.Equal(ids, []RequestID{1}) {
		t.Fatalf("orphans = %v, want [1]", ids)
	}
	// The due prefix is handed out once; the caller removes it.
	if ids = bt.DueOrphans(ids[:0], 2*time.Second); len(ids) != 0 {
		t.Fatalf("orphans handed out twice: %v", ids)
	}
	// The table's default 30s inactivity timeout, checked at t=32s.
	ids = bt.DueInactive(ids[:0], 32*time.Second, 2*time.Second)
	if !slices.Equal(ids, []RequestID{3}) {
		t.Fatalf("inactive = %v, want [3]", ids)
	}
	// Paying at t=9s moved 4's deadline to t=39s.
	if ids = bt.DueInactive(ids[:0], 38*time.Second, 8*time.Second); len(ids) != 0 {
		t.Fatalf("paying contender inactive early: %v", ids)
	}
	if ids = bt.DueInactive(ids[:0], 39*time.Second, 9*time.Second); !slices.Equal(ids, []RequestID{4}) {
		t.Fatalf("inactive = %v, want [4]", ids)
	}
}

func TestBidTableTotals(t *testing.T) {
	bt := NewBidTable(2)
	bt.Credit(1, 100, 0)
	bt.Credit(2, 300, 0)
	if bt.TotalCredited() != 400 || bt.OutstandingBytes() != 400 {
		t.Fatalf("credited=%d outstanding=%d", bt.TotalCredited(), bt.OutstandingBytes())
	}
	bt.Remove(1, ChanEvicted)
	if bt.TotalRemoved() != 100 || bt.OutstandingBytes() != 300 {
		t.Fatalf("removed=%d outstanding=%d", bt.TotalRemoved(), bt.OutstandingBytes())
	}
}

// chanWaiter is a Waiter over a buffered channel.
type chanWaiter chan []byte

func (w chanWaiter) Deliver(body []byte) { w <- body }

func TestBidTableWaiters(t *testing.T) {
	bt := NewBidTable(4)
	w1, w2 := make(chanWaiter, 1), make(chanWaiter, 1)
	if !bt.SetWaiter(5, w1) {
		t.Fatal("first registration refused")
	}
	if bt.SetWaiter(5, w2) {
		t.Fatal("duplicate registration accepted")
	}
	// DropWaiter only removes the caller's own registration.
	bt.DropWaiter(5, w2)
	if bt.Waiters() != 1 {
		t.Fatal("foreign drop removed the waiter")
	}
	if got := bt.TakeWaiter(5); got != Waiter(w1) {
		t.Fatalf("took %v, want w1", got)
	}
	if bt.TakeWaiter(5) != nil || bt.Waiters() != 0 {
		t.Fatal("waiter not consumed")
	}
	bt.SetWaiter(5, w1)
	bt.DropWaiter(5, w1)
	if bt.Waiters() != 0 {
		t.Fatal("own drop did not remove the waiter")
	}
}

func TestBidTableNegativeCreditPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative payment did not panic")
		}
	}()
	NewBidTable(1).Credit(1, -5, 0)
}

func TestBidTableShardCountRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {16, 16}, {17, 32},
	} {
		if got := NewBidTable(tc.in).Shards(); got != tc.want {
			t.Fatalf("NewBidTable(%d).Shards() = %d, want %d", tc.in, got, tc.want)
		}
	}
	if got := NewBidTable(0).Shards(); got < 1 {
		t.Fatalf("default shards = %d", got)
	}
}

// The TestLedger* tests began as the tests of a separate heap-backed
// ledger that once backed the §5 scheduler. The BidTable is now the
// only payment book, so they run against it.

func TestLedgerCreditCreatesOrphan(t *testing.T) {
	bt := NewBidTable(1)
	bt.Credit(7, 100, 0)
	c := bt.Lookup(7)
	bt.Credit(7, 50, time.Second)
	if bt.Lookup(7) != c || c.created != 0 {
		t.Fatal("second credit must reuse the channel and keep its creation time")
	}
	if bt.Balance(7) != 150 {
		t.Fatalf("balance = %d, want 150", bt.Balance(7))
	}
	if bt.Eligible() != 0 {
		t.Fatal("orphan must not be eligible")
	}
	if _, _, ok := bt.Winner(); ok {
		t.Fatal("winner must not exist among orphans")
	}
}

func TestLedgerEligibilityAndWinner(t *testing.T) {
	bt := NewBidTable(4)
	bt.Credit(1, 100, 0)
	bt.Credit(2, 300, 0)
	bt.Credit(3, 200, 0)
	bt.MarkEligible(1, 0)
	bt.MarkEligible(3, 0)
	id, paid, ok := bt.Winner()
	if !ok || id != 3 || paid != 200 {
		t.Fatalf("winner = %d/%d/%v, want 3/200 (2 is ineligible)", id, paid, ok)
	}
	bt.MarkEligible(2, 0)
	if id, paid, _ := bt.Winner(); id != 2 || paid != 300 {
		t.Fatalf("winner = %d/%d, want 2/300", id, paid)
	}
}

func TestLedgerWinnerTieBreaksLowID(t *testing.T) {
	// Equal bids spread over many shards: the tie is broken in the
	// tournament over shard maxima, not inside one heap.
	bt := NewBidTable(16)
	for _, id := range []RequestID{9, 4, 6, 31, 17} {
		bt.Credit(id, 500, 0)
		bt.MarkEligible(id, 0)
	}
	if id, _, _ := bt.Winner(); id != 4 {
		t.Fatalf("tie-break winner = %d, want 4", id)
	}
}

func TestLedgerRemove(t *testing.T) {
	bt := NewBidTable(4)
	bt.Credit(1, 100, 0)
	bt.MarkEligible(1, 0)
	bt.Credit(2, 50, 0)
	bt.MarkEligible(2, 0)
	if got := bt.Remove(1, ChanAdmitted); got != 100 {
		t.Fatalf("removed balance = %d, want 100", got)
	}
	if id, _, _ := bt.Winner(); id != 2 {
		t.Fatalf("winner after remove = %d, want 2", id)
	}
	if bt.Remove(99, ChanEvicted) != 0 {
		t.Fatal("removing unknown id must return 0")
	}
	if bt.Size() != 1 || bt.Eligible() != 1 {
		t.Fatalf("size/eligible = %d/%d", bt.Size(), bt.Eligible())
	}
}

// chargeChan is the §5 scheduler's charge: settle the balance and
// reopen an empty, ineligible channel under the same id.
func chargeChan(bt *BidTable, id RequestID, now time.Duration) int64 {
	paid := bt.Remove(id, ChanAdmitted)
	bt.Channel(id, now)
	return paid
}

func TestLedgerChargeKeepsEntry(t *testing.T) {
	bt := NewBidTable(4)
	bt.Credit(1, 400, 0)
	bt.MarkEligible(1, 0)
	if got := chargeChan(bt, 1, 0); got != 400 {
		t.Fatalf("charged %d, want 400", got)
	}
	if bt.Balance(1) != 0 || !bt.Contains(1) || bt.Lookup(1).State() != ChanActive {
		t.Fatal("charge must zero the balance but keep an open channel")
	}
	bt.Credit(2, 10, 0)
	bt.MarkEligible(2, 0)
	if id, _, _ := bt.Winner(); id != 2 {
		t.Fatal("charged request must drop out of the auction")
	}
	// Payment after the charge is the next bid once the request
	// contends again (the scheduler suspends it).
	bt.Credit(1, 30, time.Second)
	bt.MarkEligible(1, time.Second)
	if id, paid, _ := bt.Winner(); id != 1 || paid != 30 {
		t.Fatalf("winner = %d/%d, want 1/30", id, paid)
	}
}

func TestLedgerMarkEligibleWithoutCredit(t *testing.T) {
	bt := NewBidTable(4)
	bt.MarkEligible(5, time.Second)
	if bt.Balance(5) != 0 || bt.Eligible() != 1 {
		t.Fatal("request-before-payment channel broken")
	}
	if id, paid, ok := bt.Winner(); !ok || id != 5 || paid != 0 {
		t.Fatal("zero-balance eligible channel must be able to win")
	}
}

func TestLedgerOrphans(t *testing.T) {
	bt := NewBidTable(4)
	bt.Credit(1, 10, 0)             // orphan from t=0
	bt.Credit(2, 10, 5*time.Second) // orphan from t=5s
	bt.Credit(3, 10, 0)             // becomes eligible
	bt.MarkEligible(3, time.Second)
	if got := bt.DueOrphans(nil, 2*time.Second); !slices.Equal(got, []RequestID{1}) {
		t.Fatalf("orphans(cutoff=2s) = %v, want [1]", got)
	}
	if got := bt.DueOrphans(nil, 10*time.Second); !slices.Equal(got, []RequestID{2}) {
		t.Fatalf("orphans(cutoff=10s) = %v, want [2]", got)
	}
}

func TestLedgerInactive(t *testing.T) {
	bt := NewBidTable(4)
	bt.MarkEligible(1, 0)
	bt.MarkEligible(2, 0)
	bt.Credit(2, 5, 40*time.Second)
	if got := bt.DueInactive(nil, 60*time.Second, 30*time.Second); !slices.Equal(got, []RequestID{1}) {
		t.Fatalf("inactive = %v, want [1]", got)
	}
}

func TestLedgerNegativeCreditPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative credit did not panic")
		}
	}()
	NewBidTable(1).Channel(1, 0).Credit(-5, 0)
}

func TestLedgerTotals(t *testing.T) {
	bt := NewBidTable(2)
	bt.Credit(1, 100, 0)
	bt.Credit(2, 200, 0)
	bt.MarkEligible(1, 0)
	chargeChan(bt, 1, 0)
	bt.Credit(1, 40, 0)
	bt.Remove(2, ChanEvicted)
	if bt.TotalCredited() != 340 || bt.TotalRemoved() != 300 {
		t.Fatalf("totals = %d/%d, want 340/300", bt.TotalCredited(), bt.TotalRemoved())
	}
	if bt.OutstandingBytes() != 40 {
		t.Fatalf("outstanding = %d, want 40", bt.OutstandingBytes())
	}
}

// Property: under random credit/eligible/remove/charge sequences, the
// winner is always the max-balance eligible channel, and conservation
// holds: TotalCredited == TotalRemoved + OutstandingBytes.
func TestQuickLedgerInvariants(t *testing.T) {
	type op struct {
		Kind  uint8
		ID    uint8
		Bytes uint16
	}
	f := func(ops []op) bool {
		bt := NewBidTable(4)
		now := time.Duration(0)
		for _, o := range ops {
			id := RequestID(o.ID % 16)
			now += time.Millisecond
			switch o.Kind % 4 {
			case 0:
				bt.Credit(id, int64(o.Bytes), now)
			case 1:
				bt.MarkEligible(id, now)
			case 2:
				bt.Remove(id, ChanEvicted)
			case 3:
				chargeChan(bt, id, now)
			}
			wid, wpaid, wok := bt.Winner()
			sid, spaid, sok := bt.WinnerByScan()
			if wid != sid || wpaid != spaid || wok != sok {
				return false
			}
			if bt.TotalCredited() != bt.TotalRemoved()+bt.OutstandingBytes() {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(51))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: heap indices stay consistent (every eligible channel's
// heapIdx points back at itself; every other channel's is -1).
func TestQuickLedgerHeapConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bt := NewBidTable(4)
		for i := 0; i < 200; i++ {
			id := RequestID(rng.Intn(24))
			switch rng.Intn(4) {
			case 0:
				bt.Credit(id, int64(rng.Intn(1000)), 0)
			case 1:
				bt.MarkEligible(id, 0)
			case 2:
				bt.Remove(id, ChanEvicted)
			case 3:
				chargeChan(bt, id, 0)
			}
			bt.Winner() // drain the dirty stacks into the heaps
			for s := range bt.shards {
				sh := &bt.shards[s]
				if int(sh.nelig.Load()) != len(sh.elig) {
					return false
				}
				for idx, c := range sh.elig {
					if int(c.heapIdx) != idx || !c.eligible.Load() {
						return false
					}
				}
				for _, c := range sh.chans {
					if !c.eligible.Load() && c.heapIdx != -1 {
						return false
					}
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(52))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestBidTableConcurrentCredit hammers credits from many goroutines
// while an auctioneer runs winners/removals — run under -race in CI's
// race job.
func TestBidTableConcurrentCredit(t *testing.T) {
	bt := NewBidTable(8)
	const payers = 32
	const credits = 2000
	var wg sync.WaitGroup
	for p := 0; p < payers; p++ {
		id := RequestID(p)
		bt.MarkEligible(id, 0)
		wg.Add(1)
		go func() {
			defer wg.Done()
			pc := bt.Channel(id, 0)
			for i := 0; i < credits; i++ {
				pc.Credit(10, time.Duration(i))
			}
		}()
	}
	// Concurrent auctioneer: winners must always be live channels.
	stop := make(chan struct{})
	var auctions sync.WaitGroup
	auctions.Add(1)
	go func() {
		defer auctions.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			bt.Winner()
			// Sweeps with cutoffs that evict nothing.
			bt.DueOrphans(nil, -time.Hour)
			bt.DueInactive(nil, 0, -time.Hour)
		}
	}()
	wg.Wait()
	close(stop)
	auctions.Wait()
	if got, want := bt.TotalCredited(), int64(payers*credits*10); got != want {
		t.Fatalf("credited = %d, want %d (lost updates)", got, want)
	}
	id, paid, ok := bt.Winner()
	if !ok || paid != credits*10 {
		t.Fatalf("final winner %d/%d/%v, want full balance %d", id, paid, ok, credits*10)
	}
}

// TestPayChanCreditAllocs is the PR 3 analog of the simulator's
// zero-alloc invariant: crediting a payment chunk — the operation the
// live front performs for every 16 KB of attacker traffic — must not
// allocate.
func TestPayChanCreditAllocs(t *testing.T) {
	bt := NewBidTable(8)
	pc := bt.Channel(42, 0)
	bt.MarkEligible(42, 0)
	if avg := testing.AllocsPerRun(1000, func() {
		pc.Credit(16384, 5*time.Millisecond)
		if pc.State() != ChanActive {
			t.Fatal("channel settled mid-test")
		}
	}); avg != 0 {
		t.Fatalf("credit path allocates %.1f/op, want 0", avg)
	}
}

// Contender populations for the credit benchmarks: a small auction
// and the paper's regime — thousands of concurrent payment channels
// during an attack.
var creditPopulations = []int{8, 4096}

// BenchmarkBidTableCredit measures the sharded per-chunk credit path
// against a populated table: each goroutine owns one payment channel
// and credits through its atomics, the way /pay handlers do. Cost is
// O(1) and lock-free regardless of how many channels contend.
func BenchmarkBidTableCredit(b *testing.B) {
	for _, pop := range creditPopulations {
		b.Run(fmt.Sprintf("contenders=%d", pop), func(b *testing.B) {
			bt := NewBidTable(0)
			for i := 0; i < pop; i++ {
				id := RequestID(1_000_000 + i)
				bt.Credit(id, int64(i), 0)
				bt.MarkEligible(id, 0)
			}
			var mu sync.Mutex
			nextID := RequestID(0)
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				mu.Lock()
				nextID++
				id := nextID
				mu.Unlock()
				pc := bt.Channel(id, 0)
				bt.MarkEligible(id, 0)
				now := time.Duration(0)
				for pb.Next() {
					now += time.Microsecond
					pc.Credit(16384, now)
					if pc.State() != ChanActive {
						b.Error("settled")
						return
					}
				}
			})
		})
	}
}

// BenchmarkBidTableWinner measures the auction scan against a
// populated table, with and without dirty shards.
func BenchmarkBidTableWinner(b *testing.B) {
	for _, contenders := range []int{16, 1024} {
		b.Run(fmt.Sprintf("contenders=%d", contenders), func(b *testing.B) {
			bt := NewBidTable(0)
			for i := 1; i <= contenders; i++ {
				bt.Credit(RequestID(i), int64(i), 0)
				bt.MarkEligible(RequestID(i), 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Credit to dirty one shard, then scan.
				bt.Credit(RequestID(i%contenders+1), 1, 0)
				if _, _, ok := bt.Winner(); !ok {
					b.Fatal("no winner")
				}
			}
		})
	}
}
