package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// This file tests the BidTable's incrementally maintained indexes —
// the per-shard price heap + dirty stack + tournament behind Winner,
// and the orphan lists + inactivity wheel behind DueOrphans /
// DueInactive — against brute-force references, plus the PR 5
// performance guards: the auction path must not allocate in steady
// state and must beat the scan path by a wide margin under flood.

// refTable is the brute-force reference model: a flat map with full
// scans for every query, plus the table's conservation tallies.
type refTable struct {
	chans    map[RequestID]*refChan
	credited int64
	removed  int64
}

type refChan struct {
	paid     int64
	created  time.Duration
	lastPay  time.Duration
	eligible bool
}

func newRefTable() *refTable { return &refTable{chans: make(map[RequestID]*refChan)} }

func (r *refTable) channel(id RequestID, now time.Duration) *refChan {
	c := r.chans[id]
	if c == nil {
		c = &refChan{created: now, lastPay: now}
		r.chans[id] = c
	}
	return c
}

func (r *refTable) credit(id RequestID, bytes int64, now time.Duration) {
	c := r.channel(id, now)
	c.paid += bytes
	c.lastPay = now
	r.credited += bytes
}

func (r *refTable) markEligible(id RequestID, now time.Duration) {
	r.channel(id, now).eligible = true
}

func (r *refTable) remove(id RequestID) {
	if c := r.chans[id]; c != nil {
		r.removed += c.paid
		delete(r.chans, id)
	}
}

// totals returns the eligible count and the outstanding bytes.
func (r *refTable) totals() (eligible int, outstanding int64) {
	for _, c := range r.chans {
		if c.eligible {
			eligible++
		}
		outstanding += c.paid
	}
	return eligible, outstanding
}

func (r *refTable) winner() (id RequestID, paid int64, ok bool) {
	for cid, c := range r.chans {
		if !c.eligible {
			continue
		}
		if !ok || c.paid > paid || (c.paid == paid && cid < id) {
			id, paid, ok = cid, c.paid, true
		}
	}
	return id, paid, ok
}

func (r *refTable) dueOrphans(cutoff time.Duration) []RequestID {
	var ids []RequestID
	for cid, c := range r.chans {
		if !c.eligible && c.created <= cutoff {
			ids = append(ids, cid)
		}
	}
	slices.Sort(ids)
	return ids
}

func (r *refTable) dueInactive(cutoff time.Duration) []RequestID {
	var ids []RequestID
	for cid, c := range r.chans {
		if c.eligible && c.lastPay <= cutoff {
			ids = append(ids, cid)
		}
	}
	slices.Sort(ids)
	return ids
}

// xorshift is the tests' tiny deterministic rng.
type xorshift uint64

func (x *xorshift) next(n uint64) uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v % n
}

// TestBidTableIndexModel drives a long randomized op mix —
// Credit/MarkEligible/Remove/Winner plus full timeout sweeps — through
// the indexed table and the brute-force reference in lockstep,
// cross-checking every Winner answer (against both the model and
// WinnerByScan), every sweep's due set, and the final counts and
// byte tallies.
func TestBidTableIndexModel(t *testing.T) {
	const (
		orphanT = 10 * time.Second
		inactT  = 30 * time.Second
	)
	for _, shards := range []int{1, 4, 64} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			bt := NewBidTable(shards)
			ref := newRefTable()
			rng := xorshift(0xfeedface ^ shards)
			now := time.Duration(0)
			var due []RequestID
			for step := 0; step < 20000; step++ {
				now += time.Duration(rng.next(800)) * time.Millisecond
				id := RequestID(rng.next(200))
				switch rng.next(8) {
				case 0, 1, 2:
					amt := int64(rng.next(100000))
					bt.Credit(id, amt, now)
					ref.credit(id, amt, now)
				case 3, 4:
					bt.MarkEligible(id, now)
					ref.markEligible(id, now)
				case 5:
					bt.Remove(id, ChanAdmitted)
					ref.remove(id)
				case 6:
					bi, bp, bok := bt.Winner()
					si, sp, sok := bt.WinnerByScan()
					ri, rp, rok := ref.winner()
					if bi != ri || bp != rp || bok != rok {
						t.Fatalf("step %d: Winner %d/%d/%v, reference %d/%d/%v",
							step, bi, bp, bok, ri, rp, rok)
					}
					if bi != si || bp != sp || bok != sok {
						t.Fatalf("step %d: Winner %d/%d/%v, WinnerByScan %d/%d/%v",
							step, bi, bp, bok, si, sp, sok)
					}
					if bok && rng.next(2) == 0 {
						bt.Remove(bi, ChanAdmitted)
						ref.remove(ri)
					}
				case 7:
					// A full sweep tick: the due sets must match the
					// brute-force predicates exactly, and (mirroring the
					// thinner) every due id is removed.
					due = due[:0]
					due = bt.DueOrphans(due, now-orphanT)
					n := len(due)
					slices.Sort(due[:n])
					if want := ref.dueOrphans(now - orphanT); !slices.Equal(due[:n], want) {
						t.Fatalf("step %d: DueOrphans = %v, reference %v", step, due[:n], want)
					}
					due = bt.DueInactive(due, now, now-inactT)
					slices.Sort(due[n:])
					if want := ref.dueInactive(now - inactT); !slices.Equal(due[n:], want) {
						t.Fatalf("step %d: DueInactive = %v, reference %v", step, due[n:], want)
					}
					for _, id := range due {
						bt.Remove(id, ChanEvicted)
						ref.remove(id)
					}
				}
			}
			if bt.Size() != len(ref.chans) {
				t.Fatalf("size = %d, reference %d", bt.Size(), len(ref.chans))
			}
			elig, out := ref.totals()
			if bt.Eligible() != elig || bt.OutstandingBytes() != out ||
				bt.TotalCredited() != ref.credited || bt.TotalRemoved() != ref.removed {
				t.Fatalf("table eligible=%d outstanding=%d credited=%d removed=%d, reference %d/%d/%d/%d",
					bt.Eligible(), bt.OutstandingBytes(), bt.TotalCredited(), bt.TotalRemoved(),
					elig, out, ref.credited, ref.removed)
			}
		})
	}
}

// TestBidTableIndexModelRace races the auctioneer's structural ops
// (MarkEligible/Remove/Winner/sweep, single goroutine per the table's
// contract) against concurrent lock-free crediting from many payer
// goroutines — run under -race in CI's race job. At quiesce
// barriers every Winner answer is cross-checked against a brute-force
// reference scan.
func TestBidTableIndexModelRace(t *testing.T) {
	bt := NewBidTable(8)
	rng := xorshift(0xabcdef99)
	now := time.Duration(0)
	const payers = 8
	const population = 64

	var pcs [population]atomic.Pointer[PayChan]
	for i := range pcs {
		pcs[i].Store(bt.Channel(RequestID(i), 0))
	}
	var due []RequestID
	for round := 0; round < 30; round++ {
		// Mutation phase: payers hammer credits while the auctioneer
		// (this goroutine) interleaves structural ops and unchecked
		// Winner calls.
		var wg sync.WaitGroup
		var stop atomic.Bool
		for p := 0; p < payers; p++ {
			seed := xorshift(uint64(round*payers+p) + 1)
			base := now // copy: the auctioneer advances now concurrently
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; !stop.Load(); i++ {
					pc := pcs[seed.next(population)].Load()
					pc.Credit(int64(seed.next(4096)), base+time.Duration(i))
					if i%64 == 0 {
						runtime.Gosched()
					}
				}
			}()
		}
		for op := 0; op < 200; op++ {
			now += time.Millisecond
			id := RequestID(rng.next(population))
			switch rng.next(4) {
			case 0:
				bt.MarkEligible(id, now)
			case 1:
				bt.Remove(id, ChanAdmitted)
				pcs[id].Store(bt.Channel(id, now)) // reopen so payers stay live
			case 2:
				bt.Winner() // racing: answer unchecked, must not crash or corrupt
			case 3:
				due = bt.DueOrphans(due[:0], now-5*time.Millisecond)
				due = bt.DueInactive(due, now, now-50*time.Millisecond)
				for _, d := range due {
					bt.Remove(d, ChanEvicted)
					pcs[d].Store(bt.Channel(d, now))
				}
			}
		}
		stop.Store(true)
		wg.Wait()

		// Quiesced: the index must answer exactly like a brute-force
		// scan over the settled state.
		bi, bp, bok := bt.Winner()
		si, sp, sok := bt.WinnerByScan()
		if bi != si || bp != sp || bok != sok {
			t.Fatalf("round %d: Winner %d/%d/%v, scan %d/%d/%v", round, bi, bp, bok, si, sp, sok)
		}
	}
	if credited, out, removed := bt.TotalCredited(), bt.OutstandingBytes(), bt.TotalRemoved(); credited != out+removed {
		t.Fatalf("conservation: credited %d != outstanding %d + removed %d", credited, out, removed)
	}
}

// TestAuctionPathAllocs is PR 5's zero-alloc invariant: the
// steady-state auction path — credit a chunk, hold the auction — must
// not allocate, no matter how many channels are outstanding.
func TestAuctionPathAllocs(t *testing.T) {
	bt := NewBidTable(8)
	const pop = 4096
	pcs := make([]*PayChan, pop)
	for i := 0; i < pop; i++ {
		id := RequestID(i + 1)
		pcs[i] = bt.Channel(id, 0)
		pcs[i].Credit(int64(i), 0)
		bt.MarkEligible(id, 0)
	}
	var i int
	now := time.Duration(0)
	if avg := testing.AllocsPerRun(2000, func() {
		now += time.Microsecond
		pcs[i%pop].Credit(16384, now)
		i++
		if _, _, ok := bt.Winner(); !ok {
			t.Fatal("no winner")
		}
	}); avg != 0 {
		t.Fatalf("auction path allocates %.1f/op, want 0", avg)
	}
}

// TestSweepPathAllocs: a steady-state sweep tick over a populated
// table — wheel advance, orphan-prefix peek, nothing due — must not
// allocate when the caller reuses its id buffer (as core.Thinner
// does).
func TestSweepPathAllocs(t *testing.T) {
	bt := NewBidTable(8)
	bt.SetInactivityTimeout(time.Hour)
	const pop = 4096
	for i := 0; i < pop; i++ {
		id := RequestID(i + 1)
		bt.Credit(id, int64(i), 0)
		bt.MarkEligible(id, 0)
	}
	buf := make([]RequestID, 0, 64)
	now := time.Duration(0)
	if avg := testing.AllocsPerRun(500, func() {
		now += time.Second
		buf = bt.DueOrphans(buf[:0], now-10*time.Second)
		buf = bt.DueInactive(buf, now, now-time.Hour)
		if len(buf) != 0 {
			t.Fatalf("unexpected evictions: %v", buf)
		}
	}); avg != 0 {
		t.Fatalf("sweep path allocates %.1f/op, want 0", avg)
	}
}

// floodTable builds the flood regime: pop eligible channels with
// spread balances, plus GOMAXPROCS payer goroutines crediting
// continuously. stop() joins the payers.
func floodTable(pop int) (bt *BidTable, pcs []*PayChan, stop func()) {
	bt = NewBidTable(0)
	pcs = make([]*PayChan, pop)
	for i := 0; i < pop; i++ {
		id := RequestID(i + 1)
		pcs[i] = bt.Channel(id, 0)
		pcs[i].Credit(int64(i), 0)
		bt.MarkEligible(id, 0)
	}
	var halt atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		seed := xorshift(uint64(w)*2654435761 + 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			now := time.Duration(0)
			for i := 0; !halt.Load(); i++ {
				now += time.Microsecond
				pcs[seed.next(uint64(pop))].Credit(16384, now)
				if i%256 == 0 {
					runtime.Gosched()
				}
			}
		}()
	}
	return bt, pcs, func() { halt.Store(true); wg.Wait() }
}

// BenchmarkWinnerUnderFlood measures winner selection against >=64k
// eligible channels with concurrent credit traffic — the PR 4 flood
// strategy's regime. "indexed" is the shipped path (dirty-stack drain
// + heaps + tournament); "scan" is the pre-PR 5 full-scan reference
// (WinnerByScan), whose cost grows linearly with the population.
func BenchmarkWinnerUnderFlood(b *testing.B) {
	for _, pop := range []int{65536} {
		for _, mode := range []string{"indexed", "scan"} {
			b.Run(fmt.Sprintf("contenders=%d/%s", pop, mode), func(b *testing.B) {
				bt, pcs, stop := floodTable(pop)
				defer stop()
				now := time.Duration(0)
				b.ReportAllocs()
				b.ResetTimer()
				// Credit a channel per iteration so every auction
				// observes fresh payment (the indexed path can never
				// answer from an untouched cache).
				for i := 0; i < b.N; i++ {
					now += time.Microsecond
					pcs[i%pop].Credit(16384, now)
					var ok bool
					if mode == "indexed" {
						_, _, ok = bt.Winner()
					} else {
						_, _, ok = bt.WinnerByScan()
					}
					if !ok {
						b.Fatal("no winner")
					}
				}
			})
		}
	}
}

// TestWinnerIndexSpeedup pins the PR 5 acceptance bar in-tree: at 64k
// eligible channels under flood, the indexed Winner must beat the scan
// path by a wide margin. The bar here is deliberately far below the
// measured gap (>=100x on dev hardware, recorded in BENCH_PR5.json) so
// CI noise cannot flake it, while a regression back to linear scanning
// still fails fast, and the minima of interleaved samples keep host load
// out of the comparison.
func TestWinnerIndexSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison; skipped in -short")
	}
	const pop = 65536
	measure := func(indexed bool) time.Duration {
		bt, pcs, stop := floodTable(pop)
		defer stop()
		const calls = 50
		now := time.Duration(0)
		start := time.Now()
		for i := 0; i < calls; i++ {
			now += time.Microsecond
			pcs[i%pop].Credit(16384, now)
			if indexed {
				bt.Winner()
			} else {
				bt.WinnerByScan()
			}
		}
		return time.Since(start) / calls
	}
	// Each path is measured several times, interleaved, and the
	// minima compared: host load on one run then slows both paths
	// alike or lands on only one of several samples.
	scan, indexed := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for range 5 {
		scan = min(scan, measure(false))
		indexed = min(indexed, measure(true))
	}
	t.Logf("winner under flood at %d contenders: indexed %v/op, scan %v/op (%.0fx)",
		pop, indexed, scan, float64(scan)/float64(indexed))
	if indexed*3 > scan {
		t.Fatalf("indexed winner %v/op is not >=3x faster than scan %v/op", indexed, scan)
	}
}

// BenchmarkSweepTick measures one sweep tick (orphan prefix + wheel
// advance, nothing due) against a large population: its cost depends
// on the channels that come due, not on how many are open.
func BenchmarkSweepTick(b *testing.B) {
	for _, pop := range []int{65536} {
		b.Run(fmt.Sprintf("contenders=%d", pop), func(b *testing.B) {
			bt := NewBidTable(0)
			bt.SetInactivityTimeout(time.Hour)
			// lastPay sits ~146 years out so no channel ever comes due
			// no matter how far b.N advances the clock (b.N is capped
			// at 1e9 one-second ticks ~ 31 years); the wheel still pays
			// its honest lazy re-check churn every time a slot wraps
			// around the horizon.
			const farFuture = time.Duration(1 << 62)
			for i := 0; i < pop; i++ {
				id := RequestID(i + 1)
				bt.Credit(id, int64(i), 0)
				bt.MarkEligible(id, 0)
				bt.Credit(id, 0, farFuture)
			}
			buf := make([]RequestID, 0, 64)
			now := time.Duration(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now += time.Second
				buf = bt.DueOrphans(buf[:0], now-10*time.Second)
				buf = bt.DueInactive(buf, now, now-time.Hour)
				if len(buf) != 0 {
					b.Fatal("unexpected evictions")
				}
			}
		})
	}
}

// TestSweepDrainsDirtyStack pins the retention bound: a channel that
// credited (and so sits on its shard's dirty stack) must be released
// by the next sweep tick after Remove, even if no auction ever runs —
// the origin stalling must not let settled channels accumulate.
func TestSweepDrainsDirtyStack(t *testing.T) {
	bt := NewBidTable(1)
	for i := 1; i <= 100; i++ {
		id := RequestID(i)
		bt.MarkEligible(id, 0)
		bt.Credit(id, 10, 0) // pushes onto the dirty stack
	}
	for i := 1; i <= 100; i++ {
		bt.Remove(RequestID(i), ChanEvicted)
	}
	if bt.shards[0].dirtyHead.Load() == nil {
		t.Fatal("test vacuous: nothing on the dirty stack before the sweep")
	}
	if got := bt.DueInactive(nil, time.Second, -1); len(got) != 0 {
		t.Fatalf("unexpected due channels: %v", got)
	}
	if bt.shards[0].dirtyHead.Load() != nil {
		t.Fatal("sweep left settled channels rooted on the dirty stack")
	}
}

// TestChannelCreationClampsToOrphanTail pins the live-mode ordering
// fix: a creation timestamp older than the shard's orphan-list tail
// (possible when racing transports read their clocks before the lock)
// is clamped forward so the due-prefix walk can never evict late.
func TestChannelCreationClampsToOrphanTail(t *testing.T) {
	bt := NewBidTable(1)
	bt.Channel(1, 5*time.Second)
	c := bt.Channel(2, 3*time.Second) // inverted clock reading
	if c.created != 5*time.Second {
		t.Fatalf("created = %v, want clamped to 5s", c.created)
	}
	ids := bt.DueOrphans(nil, 4*time.Second)
	if len(ids) != 0 {
		t.Fatalf("clamped channel evicted early: %v", ids)
	}
	ids = bt.DueOrphans(nil, 5*time.Second)
	slices.Sort(ids)
	if len(ids) != 2 {
		t.Fatalf("due orphans = %v, want both", ids)
	}
}
