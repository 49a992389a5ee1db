package core

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the BidTable: the concurrent payment ledger
// behind the Thinner's auction (§3.3, and §5's per-quantum charges)
// and the live thinner's hot path.
//
// Speak-up's defining asymmetry is that the thinner must *ingest* far
// more traffic than the origin ever serves — payment bytes dwarf
// request bytes (§3, §6) — so crediting a payment chunk must cost
// almost nothing and must never serialize behind other channels.
// The BidTable therefore shards payment channels across a power-of-two
// array by RequestID hash. Each channel (PayChan) carries an atomic
// balance word, an atomic last-activity timestamp, and an atomic state
// word; crediting is one atomic add on the balance plus a timestamp
// store, with no locks.
//
// Winner selection and timeout eviction are driven by incrementally
// maintained indexes, so their cost is independent of how many
// channels an attack keeps open:
//
//   - Each shard keeps its eligible channels in an intrusive max-heap
//     ordered by (paid desc, id asc). Credits do not touch the heap;
//     instead the first credit after each auction pushes the channel
//     onto a lock-free intrusive Treiber stack (the shard's "dirty
//     stack"). Winner drains the stack, re-sifts only the channels
//     that actually paid since the last auction (paid only grows, so
//     a sift-up suffices), and reads the heap root. A tournament tree
//     over the shard maxima then yields the global winner: O(shards)
//     worst-case, O(log shards) per touched shard amortized — never a
//     scan over the channel population.
//   - Orphan deadlines (payment with no request) live in a per-shard
//     creation-ordered intrusive list; the sweep pops only the due
//     prefix. Inactivity deadlines live in a per-shard timing wheel:
//     each eligible channel is scheduled at (lastPay + timeout), and a
//     channel that kept paying is lazily re-scheduled when its slot
//     fires, so each channel is touched at most ~once per timeout
//     period instead of once per sweep tick. Expiry predicates are
//     evaluated exactly at check time and slots always fire at or
//     before the deadline, so eviction outcomes — and the simulator's
//     goldens — are identical to the old full-table scans.
//
// Concurrency contract:
//
//   - Credit (via a cached *PayChan) is safe from any goroutine and is
//     lock-free.
//   - Channel/Lookup/waiter registration take one shard lock; they sit
//     on the once-per-request path, not the per-chunk path.
//   - MarkEligible, Remove, Winner, DueOrphans, and DueInactive are
//     the auctioneer's structural operations: they are individually
//     consistent, but the auctioneer (the Thinner, Charge included)
//     must run them from one goroutine to keep its single-threaded
//     semantics — in particular, the tournament tree is owned by the
//     Winner caller.
//     The deterministic simulator and the live front both obey this.
//
// Shard count never affects auction outcomes — the winner is the
// global (paid desc, id asc) maximum however channels are distributed
// — so the simulator stays bit-for-bit deterministic for any setting.

// ChanState is a payment channel's lifecycle word. A channel starts
// ChanActive; settling it (auction win or eviction) publishes exactly
// one of the final states via compare-and-swap, which in-flight
// payment POSTs observe between chunks. The state word only reports
// the verdict: whether a chunk counts is decided by the balance word
// (see closedBit).
type ChanState int32

const (
	// ChanActive: the channel is open and accepting payment.
	ChanActive ChanState = iota
	// ChanAdmitted: the request won an auction (or was admitted
	// directly); the client should stop paying and await service.
	ChanAdmitted
	// ChanEvicted: the channel timed out (orphaned or inactive); its
	// payment is wasted and the client should stop sending.
	ChanEvicted
)

// String implements fmt.Stringer.
func (s ChanState) String() string {
	switch s {
	case ChanActive:
		return "active"
	case ChanAdmitted:
		return "admitted"
	case ChanEvicted:
		return "evicted"
	}
	return "invalid"
}

// PayChan is one request's payment channel. Transports obtain it once
// per POST (Channel) and then credit every chunk through it without
// taking any lock.
type PayChan struct {
	id      RequestID
	shard   *bidShard
	created time.Duration // clock reading at creation; immutable

	paid     atomic.Int64 // bytes credited, with closedBit once settled
	charged  int64        // bytes Charge settled earlier; auctioneer-owned
	lastPay  atomic.Int64 // clock reading (ns) of the last credit
	state    atomic.Int32 // ChanState word
	eligible atomic.Bool  // request message has arrived

	// Price-index state, guarded by the shard mutex.
	heapIdx int32 // position in the shard's eligible heap; -1 if absent
	hkey    int64 // paid snapshot the heap position was last fixed at

	// Dirty-stack link: lock-free, synchronized through inDirty and
	// the shard's dirtyHead (see Credit / drainDirtyLocked).
	dirtyNext *PayChan
	inDirty   atomic.Bool

	// Expiry-index links (orphan list or timing-wheel slot), guarded
	// by the shard mutex. expList identifies the containing list so
	// unlink is O(1) from any position.
	expList *expiryList
	expPrev *PayChan
	expNext *PayChan
}

// ID returns the channel's request id.
func (c *PayChan) ID() RequestID { return c.id }

// closedBit marks a settled channel in its balance word. Settling sets
// it with one atomic OR whose result is the exact final balance, and
// a credit is one atomic add whose result says whether it landed
// before that OR (counted in the price) or after it (refused). That
// single linearization point keeps every byte credited either in the
// settled price or out of every tally, never in one and not the other.
const closedBit = math.MinInt64

// Paid returns the bytes credited so far (since the last Charge).
func (c *PayChan) Paid() int64 { return c.paid.Load() &^ closedBit }

// State returns the channel's lifecycle word. Payment loops poll this
// between chunks; a non-active value means stop reading and report the
// verdict.
func (c *PayChan) State() ChanState { return ChanState(c.state.Load()) }

// Credit adds bytes to the channel's balance — the payment hot path:
// a handful of atomic operations, no locks, no allocation. Credits
// arriving after the channel settled are dropped and report false;
// a credit reporting true is part of the settled price. now is the
// caller's clock reading, used for inactivity accounting.
func (c *PayChan) Credit(bytes int64, now time.Duration) bool {
	if bytes < 0 {
		panic("core: negative payment")
	}
	if c.paid.Add(bytes) < 0 {
		// Landed after the settling OR (closedBit is the sign bit), so
		// the final balance Remove returned excludes it. Undo the add
		// so Paid keeps reporting that final balance.
		c.paid.Add(-bytes)
		return false
	}
	c.lastPay.Store(int64(now))
	s := c.shard
	s.credited.Add(bytes)
	// The paid update above must precede the dirty marking (all
	// seq-cst): a drain that clears inDirty before this add completes
	// will be re-triggered by the CAS below; one that clears it after
	// already observes the new balance (see drainDirtyLocked).
	if c.eligible.Load() && c.inDirty.CompareAndSwap(false, true) {
		for {
			head := s.dirtyHead.Load()
			c.dirtyNext = head
			if s.dirtyHead.CompareAndSwap(head, c) {
				break
			}
		}
		s.touched.Store(true)
	}
	return true
}

// expiryList is an intrusive doubly-linked list of channels awaiting a
// deadline check, guarded by the owning shard's mutex.
type expiryList struct {
	head *PayChan
	tail *PayChan
}

func (l *expiryList) pushBack(c *PayChan) {
	c.expList = l
	c.expPrev = l.tail
	c.expNext = nil
	if l.tail != nil {
		l.tail.expNext = c
	} else {
		l.head = c
	}
	l.tail = c
}

func (l *expiryList) unlink(c *PayChan) {
	if c.expPrev != nil {
		c.expPrev.expNext = c.expNext
	} else {
		l.head = c.expNext
	}
	if c.expNext != nil {
		c.expNext.expPrev = c.expPrev
	} else {
		l.tail = c.expPrev
	}
	c.expList, c.expPrev, c.expNext = nil, nil, nil
}

// wheelSlots sizes each shard's inactivity timing wheel. Deadlines
// beyond the horizon are clamped to the farthest slot and lazily
// re-scheduled when it fires — firing early is safe (the predicate is
// re-checked), firing late never happens.
const (
	wheelSlots = 256
	wheelMask  = wheelSlots - 1
)

// bidShard is one slot of the table. The mutex guards the maps and the
// index structures (heap, expiry lists, wheel); balances are read and
// written through the channels' atomics. The trailing pad keeps
// adjacent shards' hot counters off a shared cache line.
type bidShard struct {
	mu      sync.RWMutex
	chans   map[RequestID]*PayChan
	waiters map[RequestID]Waiter

	// elig is the intrusive max-heap of eligible channels ordered by
	// (hkey desc, id asc); hkey is each channel's paid snapshot from
	// its last fix, repaired from the dirty stack at auction time.
	elig []*PayChan

	// orphans holds ineligible channels in creation order; the sweep
	// pops only the due prefix.
	orphans expiryList

	// wheel holds eligible channels bucketed by inactivity-deadline
	// tick; wheelTick is the last slot index processed by DueInactive.
	wheel     [wheelSlots]expiryList
	wheelTick int64

	dirtyHead atomic.Pointer[PayChan] // credited-since-last-drain stack
	touched   atomic.Bool             // winner index changed since last Winner
	nelig     atomic.Int64            // eligible channels in this shard
	credited  atomic.Int64            // bytes ever credited to this shard
	removed   atomic.Int64            // bytes settled out of this shard

	_ [40]byte
}

// chanBefore reports whether a outranks b in the auction total order
// (paid desc, id asc), comparing heap snapshots.
func chanBefore(a, b *PayChan) bool {
	if a.hkey != b.hkey {
		return a.hkey > b.hkey
	}
	return a.id < b.id
}

func (s *bidShard) heapPush(c *PayChan) {
	c.heapIdx = int32(len(s.elig))
	s.elig = append(s.elig, c)
	s.heapUp(int(c.heapIdx))
}

func (s *bidShard) heapUp(i int) {
	h := s.elig
	c := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !chanBefore(c, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].heapIdx = int32(i)
		i = p
	}
	h[i] = c
	c.heapIdx = int32(i)
}

func (s *bidShard) heapDown(i int) {
	h := s.elig
	n := len(h)
	c := h[i]
	for {
		best := i
		if l := 2*i + 1; l < n && chanBefore(h[l], h[best]) {
			best = l
		}
		if r := 2*i + 2; r < n && chanBefore(h[r], h[best]) {
			best = r
		}
		if best == i {
			break
		}
		h[i] = h[best]
		h[i].heapIdx = int32(i)
		h[best] = c
		c.heapIdx = int32(best)
		i = best
	}
}

func (s *bidShard) heapRemove(i int) {
	h := s.elig
	n := len(h) - 1
	c := h[i]
	if i != n {
		h[i] = h[n]
		h[i].heapIdx = int32(i)
	}
	h[n] = nil
	s.elig = h[:n]
	if i < n {
		if i > 0 && chanBefore(s.elig[i], s.elig[(i-1)/2]) {
			s.heapUp(i)
		} else {
			s.heapDown(i)
		}
	}
	c.heapIdx = -1
}

// drainDirtyLocked (shard mutex held) consumes the shard's dirty stack
// and re-sifts each credited channel with its fresh balance. Balances
// only grow, so a sift-up restores the heap order. Cost is
// proportional to the channels that actually paid since the last
// drain, not to the shard population.
func (s *bidShard) drainDirtyLocked() {
	c := s.dirtyHead.Swap(nil)
	for c != nil {
		next := c.dirtyNext
		c.dirtyNext = nil
		// The release below publishes the nil link; a concurrent
		// Credit can re-push only after its CAS observes false, which
		// orders its dirtyNext write after ours.
		c.inDirty.Store(false)
		if c.heapIdx >= 0 {
			if k := c.paid.Load(); k != c.hkey {
				c.hkey = k
				s.heapUp(int(c.heapIdx))
			}
		}
		c = next
	}
}

// tourEntry is one tournament-tree node: a shard's current maximum.
type tourEntry struct {
	paid int64
	id   RequestID
	ok   bool
}

// betterEntry picks the higher-ranked of two shard maxima under the
// auction total order.
func betterEntry(a, b tourEntry) tourEntry {
	if !a.ok {
		return b
	}
	if !b.ok {
		return a
	}
	if a.paid != b.paid {
		if a.paid > b.paid {
			return a
		}
		return b
	}
	if a.id <= b.id {
		return a
	}
	return b
}

// BidTable is the concurrent payment-accounting table: sharded
// channels, lock-free crediting, and incrementally maintained winner
// and expiry indexes (see the package comment at the top of this
// file). Create with NewBidTable.
type BidTable struct {
	shards []bidShard
	mask   uint64 // len(shards)-1; len is a power of two

	// tour is the tournament tree over shard maxima: leaves at
	// [len(shards), 2*len(shards)), root at 1. Owned by the Winner
	// caller (the auctioneer goroutine); no locks.
	tour []tourEntry

	// inactT and wheelShift configure the inactivity wheel: channels
	// are scheduled at lastPay+inactT, bucketed by ticks of 2^wheelShift
	// nanoseconds. Set via SetInactivityTimeout before first use.
	inactT     time.Duration
	wheelShift uint
}

// NewBidTable creates a table with the given shard count, rounded up
// to a power of two. shards <= 0 selects a GOMAXPROCS-scaled default.
// Shard count affects only contention, never auction outcomes.
func NewBidTable(shards int) *BidTable {
	if shards <= 0 {
		shards = 4 * runtime.GOMAXPROCS(0)
	}
	n := 1
	for n < shards && n < 1<<14 {
		n <<= 1
	}
	t := &BidTable{
		shards: make([]bidShard, n),
		mask:   uint64(n - 1),
		tour:   make([]tourEntry, 2*n),
	}
	for i := range t.shards {
		t.shards[i].chans = make(map[RequestID]*PayChan)
		t.shards[i].waiters = make(map[RequestID]Waiter)
	}
	t.SetInactivityTimeout(30 * time.Second)
	return t
}

// SetInactivityTimeout tells the wheel the deadline horizon the
// sweeper will use (DueInactive's cutoff is now-timeout), picking a
// slot granularity that covers it. Must be called before any channel
// becomes eligible; NewThinner does this with its configured
// InactivityTimeout. Larger sweeper timeouts than the configured one
// only cause earlier (re-checked) fires, never late ones.
func (t *BidTable) SetInactivityTimeout(d time.Duration) {
	if d <= 0 {
		d = 30 * time.Second
	}
	for i := range t.shards {
		if t.shards[i].nelig.Load() != 0 {
			panic("core: SetInactivityTimeout after channels became eligible")
		}
	}
	shift := uint(20) // ~1ms granularity floor
	for shift < 40 && time.Duration(wheelSlots-2)<<shift < d {
		shift++
	}
	t.inactT = d
	t.wheelShift = shift
}

// UpdateInactivityTimeout changes the deadline horizon while the
// table is live (Thinner.Reconfigure). Unlike SetInactivityTimeout it
// keeps the wheel's granularity: deadlines beyond the current horizon
// clamp to the farthest slot and are re-checked when they fire, so a
// grown timeout only causes early re-checks. Call from the control
// goroutine — the same one running MarkEligible and the sweep, which
// are the only readers.
func (t *BidTable) UpdateInactivityTimeout(d time.Duration) {
	if d <= 0 {
		return
	}
	t.inactT = d
}

// Shards returns the shard count (a power of two).
func (t *BidTable) Shards() int { return len(t.shards) }

func (t *BidTable) shard(id RequestID) *bidShard {
	// Fibonacci hashing: sequential ids (the common case — clients
	// draw from a shared counter) spread uniformly across shards. The
	// well-mixed high half selects the shard.
	h := uint64(id) * 0x9E3779B97F4A7C15
	return &t.shards[(h>>32)&t.mask]
}

// Channel returns id's payment channel, creating it (active,
// ineligible) if absent. Transports call this once per POST and then
// credit chunks through the returned channel. New channels enter the
// shard's orphan expiry list until their request message arrives.
func (t *BidTable) Channel(id RequestID, now time.Duration) *PayChan {
	s := t.shard(id)
	s.mu.RLock()
	c := s.chans[id]
	s.mu.RUnlock()
	if c != nil {
		return c
	}
	s.mu.Lock()
	if c = s.chans[id]; c == nil {
		// Clamp the creation stamp to the orphan list's tail: callers
		// read their clock before taking the shard lock, so two racing
		// creations can arrive with inverted timestamps. Keeping the
		// list monotone preserves DueOrphans' due-prefix invariant
		// (checks fire at or before the deadline, never late) at the
		// cost of aging a channel forward by the scheduling skew. The
		// simulator's clock is monotone, so this never fires there.
		if tail := s.orphans.tail; tail != nil && tail.created > now {
			now = tail.created
		}
		c = &PayChan{id: id, shard: s, created: now, heapIdx: -1}
		c.lastPay.Store(int64(now))
		s.chans[id] = c
		s.orphans.pushBack(c)
	}
	s.mu.Unlock()
	return c
}

// Lookup returns id's channel or nil.
func (t *BidTable) Lookup(id RequestID) *PayChan {
	s := t.shard(id)
	s.mu.RLock()
	c := s.chans[id]
	s.mu.RUnlock()
	return c
}

// Credit adds bytes to id's balance, creating the channel if absent,
// for a caller holding no channel. Transports, the simulator's
// included, cache the *PayChan and credit through it.
func (t *BidTable) Credit(id RequestID, bytes int64, now time.Duration) {
	t.Channel(id, now).Credit(bytes, now)
}

// scheduleExpiryLocked (shard mutex held) buckets c by its inactivity
// deadline. Deadlines at or before the wheel's position land in the
// current slot — which DueInactive re-examines every call — and
// deadlines beyond the horizon clamp to the farthest slot; both only
// ever make the check fire early, never late.
func (t *BidTable) scheduleExpiryLocked(s *bidShard, c *PayChan, deadline time.Duration) {
	off := int64(deadline)>>t.wheelShift - s.wheelTick
	if off < 0 {
		off = 0
	} else if off > wheelSlots-1 {
		off = wheelSlots - 1
	}
	s.wheel[(s.wheelTick+off)&wheelMask].pushBack(c)
}

// MarkEligible records that id's request message has arrived, creating
// the channel if needed. Eligible channels participate in auctions:
// the channel leaves the orphan list, enters the shard's price heap at
// its current balance, and is scheduled on the inactivity wheel.
func (t *BidTable) MarkEligible(id RequestID, now time.Duration) {
	c := t.Channel(id, now)
	s := c.shard
	s.mu.Lock()
	if !c.eligible.Load() {
		if c.expList != nil {
			c.expList.unlink(c)
		}
		// Publish eligibility BEFORE snapshotting the balance: a credit
		// racing this call either lands before the snapshot (its
		// paid.Add precedes its eligible.Load()==false, which precedes
		// this store — all seq-cst) or observes eligible and pushes
		// onto the dirty stack, so no payment can be missing from both
		// the snapshot and the next drain.
		c.eligible.Store(true)
		c.hkey = c.paid.Load()
		s.heapPush(c)
		s.nelig.Add(1)
		t.scheduleExpiryLocked(s, c, time.Duration(c.lastPay.Load())+t.inactT)
		s.touched.Store(true)
	}
	s.mu.Unlock()
}

// Remove settles id's channel: deletes it from the table and all
// indexes, publishes final as its state word (the first settle wins;
// later ones are no-ops), and returns its price: the final balance
// plus whatever Charge settled earlier. Unknown ids return 0.
func (t *BidTable) Remove(id RequestID, final ChanState) int64 {
	s := t.shard(id)
	s.mu.Lock()
	c := s.chans[id]
	if c == nil {
		s.mu.Unlock()
		return 0
	}
	delete(s.chans, id)
	s.unindexLocked(c)
	s.mu.Unlock()
	// Publish the verdict before closing the balance, so a payer whose
	// credit is refused already reads a final state.
	c.state.CompareAndSwap(int32(ChanActive), int32(final))
	paid := c.paid.Or(closedBit)
	s.removed.Add(paid)
	return c.charged + paid
}

// Charge settles and returns what id paid since its last charge but
// keeps the channel open, out of the auction and the expiry indexes
// until MarkEligible (§5: the request holding the server pays for each
// quantum). The bytes count as removed, and Remove adds them to the
// channel's price. Auctioneer goroutine only.
func (t *BidTable) Charge(id RequestID, now time.Duration) int64 {
	c := t.Channel(id, now)
	s := c.shard
	s.mu.Lock()
	s.unindexLocked(c)
	s.mu.Unlock()
	paid := c.paid.Swap(0)
	c.charged += paid
	s.removed.Add(paid)
	return paid
}

// unindexLocked (shard mutex held) takes c out of the auction and the
// expiry indexes.
func (s *bidShard) unindexLocked(c *PayChan) {
	if c.expList != nil {
		c.expList.unlink(c)
	}
	if c.eligible.Load() {
		c.eligible.Store(false)
		s.nelig.Add(-1)
		s.heapRemove(int(c.heapIdx))
		s.touched.Store(true)
	}
}

// refreshLeaf drains shard i's dirty stack, repairs its heap, and
// propagates the shard maximum up the tournament tree. Auctioneer
// goroutine only.
func (t *BidTable) refreshLeaf(i int) {
	s := &t.shards[i]
	s.mu.Lock()
	s.drainDirtyLocked()
	var e tourEntry
	if len(s.elig) > 0 {
		top := s.elig[0]
		e = tourEntry{paid: top.hkey, id: top.id, ok: true}
	}
	s.mu.Unlock()
	idx := len(t.shards) + i
	if t.tour[idx] == e {
		return
	}
	t.tour[idx] = e
	for idx > 1 {
		idx >>= 1
		best := betterEntry(t.tour[2*idx], t.tour[2*idx+1])
		if t.tour[idx] == best {
			break
		}
		t.tour[idx] = best
	}
}

// Winner returns the eligible channel with the highest balance (ties
// to the lowest id). ok is false when nothing is eligible. Only shards
// whose index changed since the last call — a credit, eligibility, or
// removal — are touched: each drains its dirty stack (work
// proportional to the channels that paid since the last auction) and
// updates its tournament leaf in O(log shards). Untouched shards cost
// one atomic load.
func (t *BidTable) Winner() (id RequestID, paid int64, ok bool) {
	for i := range t.shards {
		s := &t.shards[i]
		if !s.touched.Load() {
			continue
		}
		// Clear before draining: a credit racing the drain re-marks
		// the shard, so its update is seen now or next auction.
		s.touched.Store(false)
		t.refreshLeaf(i)
	}
	root := t.tour[1]
	return root.id, root.paid, root.ok
}

// WinnerByScan recomputes the winner by brute force over every channel
// in every shard — the pre-index selection path, retained as the
// reference for the model tests and the flood speed-up test.
// O(population); do not call on a hot path.
func (t *BidTable) WinnerByScan() (id RequestID, paid int64, ok bool) {
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.RLock()
		for cid, c := range s.chans {
			if !c.eligible.Load() {
				continue
			}
			p := c.paid.Load()
			if !ok || p > paid || (p == paid && cid < id) {
				id, paid, ok = cid, p, true
			}
		}
		s.mu.RUnlock()
	}
	return id, paid, ok
}

// DueOrphans appends to dst the ids of ineligible channels created at
// or before cutoff, unlinking them from the orphan index. The caller
// (the auctioneer's sweep) must Remove each returned id. Cost is
// proportional to the due channels only: shards keep orphans in
// creation order, so collection stops at the first live one.
func (t *BidTable) DueOrphans(dst []RequestID, cutoff time.Duration) []RequestID {
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for c := s.orphans.head; c != nil && c.created <= cutoff; c = s.orphans.head {
			s.orphans.unlink(c)
			dst = append(dst, c.id)
		}
		s.mu.Unlock()
	}
	return dst
}

// DueInactive advances each shard's timing wheel to now and appends to
// dst the ids of eligible channels with no payment since cutoff,
// unlinking them from the wheel; channels that paid are re-scheduled
// at lastPay+(now-cutoff). The caller (the auctioneer's sweep) must
// Remove each returned id. Only slots that came due are walked, so a
// channel that keeps paying is touched about once per timeout period,
// not once per sweep tick.
func (t *BidTable) DueInactive(dst []RequestID, now, cutoff time.Duration) []RequestID {
	timeout := now - cutoff
	newTick := int64(now) >> t.wheelShift
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		// Drain the dirty stack here too, not just at auctions: the
		// stack roots every channel pushed onto it, including ones
		// Remove has since settled, and Winner may not run for a long
		// time if the origin stalls. Draining each sweep tick bounds
		// that retention at one tick's worth of dirty channels (work
		// proportional to channels that paid, never to the
		// population). The touched flag is left alone, so the next
		// Winner still refreshes this shard's tournament leaf.
		s.drainDirtyLocked()
		from := s.wheelTick
		if newTick-from >= wheelSlots {
			from = newTick - wheelSlots + 1
		}
		s.wheelTick = newTick
		// The current slot (u == newTick) is processed on every call,
		// not just on tick advance: entries parked there may have a
		// deadline later in the same quantum.
		for u := from; u <= newTick; u++ {
			slot := &s.wheel[u&wheelMask]
			c := slot.head
			slot.head, slot.tail = nil, nil
			for c != nil {
				next := c.expNext
				c.expList, c.expPrev, c.expNext = nil, nil, nil
				last := time.Duration(c.lastPay.Load())
				if last <= cutoff {
					dst = append(dst, c.id)
				} else {
					t.scheduleExpiryLocked(s, c, last+timeout)
				}
				c = next
			}
		}
		s.mu.Unlock()
	}
	return dst
}

// Balance returns id's current balance (0 if unknown).
func (t *BidTable) Balance(id RequestID) int64 {
	if c := t.Lookup(id); c != nil {
		return c.Paid()
	}
	return 0
}

// Contains reports whether id has a channel (eligible or not).
func (t *BidTable) Contains(id RequestID) bool { return t.Lookup(id) != nil }

// Eligible returns the number of channels eligible to win an auction.
func (t *BidTable) Eligible() int {
	var n int64
	for i := range t.shards {
		n += t.shards[i].nelig.Load()
	}
	return int(n)
}

// Size returns the total number of channels, including orphans.
func (t *BidTable) Size() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.RLock()
		n += len(s.chans)
		s.mu.RUnlock()
	}
	return n
}

// OutstandingBytes returns the sum of all open channels' balances.
func (t *BidTable) OutstandingBytes() int64 {
	var sum int64
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.RLock()
		for _, c := range s.chans {
			sum += c.paid.Load()
		}
		s.mu.RUnlock()
	}
	return sum
}

// TotalCredited returns the bytes ever credited across all channels.
func (t *BidTable) TotalCredited() int64 {
	var sum int64
	for i := range t.shards {
		sum += t.shards[i].credited.Load()
	}
	return sum
}

// TotalRemoved returns the bytes settled out of the table (admitted
// prices plus evicted waste).
func (t *BidTable) TotalRemoved() int64 {
	var sum int64
	for i := range t.shards {
		sum += t.shards[i].removed.Load()
	}
	return sum
}

// Waiter registration. The admission front (internal/front) parks each
// held request's transport waiter here, keyed by id in the same shards
// as the payment channels, so registration contends only within a
// shard. Waiters have their own lifecycle: settling a payment channel
// does not disturb the waiter (the origin response is delivered after
// service completes).

// SetWaiter registers w as id's transport waiter. It reports false —
// registering nothing — if a waiter is already present, which the
// front surfaces as a duplicate-request error.
func (t *BidTable) SetWaiter(id RequestID, w Waiter) bool {
	s := t.shard(id)
	s.mu.Lock()
	if _, dup := s.waiters[id]; dup {
		s.mu.Unlock()
		return false
	}
	s.waiters[id] = w
	s.mu.Unlock()
	return true
}

// TakeWaiter removes and returns id's waiter, or nil if none.
func (t *BidTable) TakeWaiter(id RequestID) Waiter {
	s := t.shard(id)
	s.mu.Lock()
	w := s.waiters[id]
	delete(s.waiters, id)
	s.mu.Unlock()
	return w
}

// DropWaiter removes id's waiter only if it is still w (the caller's
// own registration) — the disconnect/timeout path, which must not
// clobber a successor's registration.
func (t *BidTable) DropWaiter(id RequestID, w Waiter) {
	s := t.shard(id)
	s.mu.Lock()
	if cur, ok := s.waiters[id]; ok && cur == w {
		delete(s.waiters, id)
	}
	s.mu.Unlock()
}

// Waiters returns the number of registered waiters.
func (t *BidTable) Waiters() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.RLock()
		n += len(s.waiters)
		s.mu.RUnlock()
	}
	return n
}
