// Package sim provides a deterministic discrete-event simulation engine.
//
// A Loop owns a virtual clock and a priority queue of events. Events
// run in timestamp order (FIFO among equal timestamps). The engine is
// single-goroutine by design: all model state mutated from event
// callbacks needs no locking, and a fixed RNG seed makes entire runs
// reproducible bit-for-bit.
//
// The implementation is built for zero steady-state allocation on the
// scheduling hot path. Events live in a slot arena recycled through a
// free list; the queue holds small value entries (no interface
// boxing, no virtual dispatch); and hot callers use ScheduleTimer with
// a typed Handler plus two untyped pointer arguments instead of
// closures, so re-arming a timer never touches the garbage collector.
// Schedule/After with ordinary closures remain available for cold
// paths and tests.
//
// The hottest events go through a Stream: a FIFO of events that share
// one handler and one env and are pushed in time order, such as
// netsim's packet hops, which each run a fixed offset after they are
// scheduled. Stream events skip the arena: each is an (at, seq, arg)
// record in the stream's own ring, and only the stream's head sits in
// the queue. They cannot be canceled, which is what lets them go
// without slots and generations.
//
// # Two tiers
//
// Most pending events in a TCP simulation are retransmission and
// handshake timers 0.1-10 s away, and nearly all of them are canceled
// and re-armed by the next ACK long before they fire. The queue
// therefore has two tiers split at a moving boundary, limit:
//
//   - the near tier, a hand-rolled 4-ary min-heap, holds every queued
//     event with at <= limit;
//   - the far tier, an unsorted list at the other end of the heap's
//     array, holds every queued event with at > limit. Scheduling into
//     it is an append, and canceling from it a swap-remove, both O(1)
//     (each slot records its tier and its index there).
//
// A stream's head lives in whichever tier its time belongs to, like
// any event; the rest of the stream waits in its ring.
//
// When the heap runs dry, a refill advances limit by span and moves
// the far entries now at or before it into the heap. span adapts so
// the refill's scan of the far tier stays amortised against the events
// run since the previous refill: it doubles when fewer events ran than
// the far tier holds, and halves when more than four times as many
// ran. The heap thus stays about as small as the scan cost allows,
// without a tuned constant.
//
// Run order is exact. Every entry keeps the (at, seq) key it was given
// when scheduled, wherever it lives; every near entry precedes every
// far one because at <= limit < at'; so the heap root is always the
// earliest queued event, and when the heap is empty the refill moves
// the earliest far event (at least) into it. A stream event takes its
// seq from the same counter when it is pushed, and a stream's events
// are in (at, seq) order, so its head is its earliest and the merged
// order is what one heap of every event would give. Cancel removes
// entries eagerly from either tier, and Processed counts only events
// that ran, stream events included, so order, event counts and every
// derived output are the same as a single heap's.
//
// # The vacant root
//
// Running an event leaves its root entry vacant instead of sifting the
// heap. Most callbacks schedule at least one event, and the first
// near-tier push takes the vacant root with one siftDown: the pop's
// sift and the push's sift become one (a replace-top). When the
// running event is a stream's head, the stream's next event is pushed
// the same way before the callback runs. If the root is still vacant
// when the callback returns, settle pops it then; Cancel settles
// before it removes a heap entry, and QueueLen never counts the vacant
// root.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// Time is a virtual timestamp measured from the start of the run.
// It is a time.Duration so arithmetic is exact (integer nanoseconds).
type Time = time.Duration

const maxTime = Time(math.MaxInt64)

// Handler is a typed event callback. The loop dispatches it with the
// two values supplied to ScheduleTimer: env is conventionally the
// long-lived object the event belongs to (a link, a connection), arg
// the per-event payload (a packet). Passing pointers through env/arg
// does not allocate; that is the point of this API.
type Handler func(env, arg any)

// Event is a handle to a scheduled event. It is a small value (copy
// freely); the zero Event refers to nothing, and Cancel/Pending on it
// are safe no-ops. Handles are generation-checked: once the event has
// run or been canceled-and-collected, the handle goes stale and all
// operations on it are no-ops.
type Event struct {
	slot uint32 // index+1 into the loop's arena; 0 = none
	gen  uint32
}

// Key packs the handle into one word, for holders that store handles
// behind an interface (simclock's core.Timer); EventOfKey unpacks it.
func (e Event) Key() uint64 { return uint64(e.slot)<<32 | uint64(e.gen) }

// EventOfKey returns the handle whose Key is k.
func EventOfKey(k uint64) Event { return Event{slot: uint32(k >> 32), gen: uint32(k)} }

// slot states. A slot is queued, in the near or the far tier, from
// Schedule until it runs or Cancel removes it (eager deletion: canceled
// timers leave the queue immediately, so churny re-armed timers — TCP
// RTO resets fire one per ACK — never inflate it with corpses).
const (
	slotFree = iota
	slotNear
	slotFar
)

// eventSlot is one arena cell. Callback state is cleared eagerly on
// cancel/run so the arena never retains dead closures or payloads.
type eventSlot struct {
	fn    func() // closure form (Schedule/After)
	h     Handler
	env   any
	arg   any
	gen   uint32
	state uint32
	pos   int32 // index of this slot's entry in its tier
}

// entry is one queue element. The ordering key (at, seq) is stored
// inline so sift operations and far-tier scans compare without
// dereferencing the arena. slot is an arena index, or streamTag plus
// the index of a stream whose head the entry is; stream entries have
// no slot, so moving them records no position.
type entry struct {
	at   Time
	seq  uint64
	slot uint32
}

const streamTag = 1 << 31

func (a entry) less(b entry) bool { return lessBit(a, b) != 0 }

// lessBit is 1 if a orders before b and 0 otherwise, computed without
// a branch: (at, seq) compared as one 128-bit unsigned number (at is
// never negative). Heap sifts pick the least child with it, where a
// branch would be mispredicted about half the time.
func lessBit(a, b entry) int {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(uint64(a.at), uint64(b.at), borrow)
	return int(borrow)
}

// Loop is the simulation event loop. Create one with NewLoop.
type Loop struct {
	now   Time
	seq   uint64 // tie-break: schedule order among equal timestamps
	limit Time
	span  Time   // how far a refill advances limit; adapted in refill
	ranAt uint64 // nRun at the last refill

	// The tiers share q, so they pre-size and grow as one: the near
	// heap (every event with at <= limit) is q[:len(heap)], and the far
	// list (unsorted, every event with at > limit) grows down from the
	// end, its entry k at q[len(q)-1-k].
	q    []entry
	heap []entry
	nFar int
	// vacant is set while the running event's root entry waits to be
	// replaced by a push or removed by settle.
	vacant bool

	slots   []eventSlot
	free    []uint32 // recycled arena indices
	streams []*Stream
	behind  int // stream events queued behind their stream's head
	rng     Rand
	nRun    uint64
	halted  bool
}

// NewLoop returns a Loop whose RNG is seeded with seed. Two loops
// with equal seeds and equal schedules produce identical runs.
func NewLoop(seed int64) *Loop {
	l := &Loop{span: 1}
	l.rng.Seed(seed)
	return l
}

// Now returns the current virtual time.
func (l *Loop) Now() Time { return l.now }

// Rand returns the loop's deterministic RNG. Model code must draw all
// randomness from this generator to preserve reproducibility.
func (l *Loop) Rand() *Rand { return &l.rng }

// Processed returns the number of events executed so far.
func (l *Loop) Processed() uint64 { return l.nRun }

// Grow pre-sizes the arena and the queue for n simultaneously pending
// events, so even the first packets of a run schedule without growing
// a slice.
func (l *Loop) Grow(n int) {
	if len(l.q) < n {
		l.resize(n)
	}
	if cap(l.slots) < n {
		s := make([]eventSlot, len(l.slots), n)
		copy(s, l.slots)
		l.slots = s
	}
	if cap(l.free) < n {
		f := make([]uint32, len(l.free), n)
		copy(f, l.free)
		l.free = f
	}
}

// Schedule runs fn at absolute virtual time at. Scheduling in the past
// panics: it always indicates a model bug, and silently reordering
// events would corrupt causality. In steady state (arena warm) the
// call does not allocate; the closure fn itself is the caller's.
func (l *Loop) Schedule(at Time, fn func()) Event {
	e := l.alloc(at)
	l.slots[e.slot-1].fn = fn
	return e
}

// After runs fn after delay d (d < 0 is treated as 0).
func (l *Loop) After(d time.Duration, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return l.Schedule(l.now+d, fn)
}

// ScheduleTimer runs h(env, arg) at absolute virtual time at. This is
// the zero-allocation form: h should be a package-level function (not
// a method value or closure, which allocate at the call site), and
// env/arg should be pointers or nil.
func (l *Loop) ScheduleTimer(at Time, h Handler, env, arg any) Event {
	e := l.alloc(at)
	s := &l.slots[e.slot-1]
	s.h, s.env, s.arg = h, env, arg
	return e
}

// AfterTimer runs h(env, arg) after delay d (d < 0 is treated as 0).
func (l *Loop) AfterTimer(d time.Duration, h Handler, env, arg any) Event {
	if d < 0 {
		d = 0
	}
	return l.ScheduleTimer(l.now+d, h, env, arg)
}

// alloc reserves an arena slot and queues it in the tier its time
// belongs to.
func (l *Loop) alloc(at Time) Event {
	if at < l.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, l.now))
	}
	l.seq++
	var idx uint32
	if n := len(l.free); n > 0 {
		idx = l.free[n-1]
		l.free = l.free[:n-1]
	} else {
		l.slots = append(l.slots, eventSlot{})
		idx = uint32(len(l.slots) - 1)
	}
	s := &l.slots[idx]
	e := entry{at: at, seq: l.seq, slot: idx}
	if at <= l.limit {
		s.state = slotNear
		l.push(e)
	} else {
		s.state = slotFar
		l.pushFar(e)
	}
	return Event{slot: idx + 1, gen: s.gen}
}

// Cancel prevents a pending event from running. Canceling an event
// that already ran (or was canceled), or the zero Event, is a no-op.
// The queue entry is removed immediately and the slot recycled.
func (l *Loop) Cancel(e Event) {
	if e.slot == 0 {
		return
	}
	s := &l.slots[e.slot-1]
	if s.gen != e.gen || s.state == slotFree {
		return
	}
	if s.state == slotNear {
		l.settle()
		l.removeAt(int(s.pos))
	} else {
		l.removeFar(int(s.pos))
	}
	s.fn, s.h, s.env, s.arg = nil, nil, nil, nil
	s.state = slotFree
	s.gen++
	l.free = append(l.free, e.slot-1)
}

// Pending reports whether the event is still queued and not canceled.
func (l *Loop) Pending(e Event) bool {
	if e.slot == 0 {
		return false
	}
	s := &l.slots[e.slot-1]
	return s.gen == e.gen && s.state != slotFree
}

// Halt stops the loop after the current event returns. Pending events
// stay queued; Run can be called again to resume.
func (l *Loop) Halt() { l.halted = true }

// Run executes events until the queue empties or until the next event
// would run strictly after deadline. The clock finishes at the later of
// its current value and deadline (like real time passing with nothing
// to do). Run returns the number of events executed by this call.
func (l *Loop) Run(deadline Time) uint64 {
	l.halted = false
	start := l.nRun
	for !l.halted && l.due(deadline) {
		l.step()
	}
	if l.now < deadline && !l.halted {
		l.now = deadline
	}
	return l.nRun - start
}

// RunAll executes events until none remain. It is intended for tests
// and small models; workloads with self-regenerating events (timers)
// must use Run with a deadline instead.
func (l *Loop) RunAll() uint64 {
	l.halted = false
	start := l.nRun
	for !l.halted && l.due(maxTime) {
		l.step()
	}
	return l.nRun - start
}

// step runs the heap root's event, leaving its entry vacant (see the
// package doc). An arena slot is retired to the free list, with its
// generation bumped so stale handles die, before the callback runs, so
// callbacks may reschedule freely.
func (l *Loop) step() {
	e := l.heap[0]
	l.vacant = true
	l.now = e.at
	if e.slot >= streamTag {
		l.streams[e.slot-streamTag].run()
	} else {
		s := &l.slots[e.slot]
		fn, h, env, arg := s.fn, s.h, s.env, s.arg
		s.fn, s.h, s.env, s.arg = nil, nil, nil, nil
		s.state = slotFree
		s.gen++
		l.free = append(l.free, e.slot)
		if h != nil {
			h(env, arg)
		} else {
			fn()
		}
	}
	l.settle()
	l.nRun++
}

// settle pops the vacant root, if the running event left it vacant.
func (l *Loop) settle() {
	if l.vacant {
		l.vacant = false
		l.popRoot()
	}
}

// due reports whether the earliest queued event is at or before
// deadline, first refilling the heap from the far tier if it ran dry.
func (l *Loop) due(deadline Time) bool {
	if len(l.heap) == 0 && !l.refill(deadline) {
		return false
	}
	return l.heap[0].at <= deadline
}

// refill moves the far tier's earliest events into the empty heap and
// reports whether it moved any. It moves none when the far tier is
// empty or when every far event lies past deadline (all are past
// limit, and limit is not before deadline).
func (l *Loop) refill(deadline Time) bool {
	if l.nFar == 0 || l.limit >= deadline {
		return false
	}
	// Keep the scan amortised: one far entry scanned per event run.
	ran, n := l.nRun-l.ranAt, uint64(l.nFar)
	l.ranAt = l.nRun
	switch {
	case ran < n && l.span < maxTime/2:
		l.span *= 2
	case ran > 4*n && l.span > 1:
		l.span /= 2
	}
	limit := addSat(max(l.limit, l.now), l.span)
	if moved, earliest := l.pull(limit); !moved {
		// Idle stretch: nothing due within span; jump to the earliest.
		limit = addSat(earliest, l.span)
		l.pull(limit)
	}
	l.limit = limit
	return true
}

// pull moves every far entry at or before limit into the heap. It
// reports whether it moved any, and the earliest time left behind.
func (l *Loop) pull(limit Time) (moved bool, earliest Time) {
	earliest = maxTime
	for k := 0; k < l.nFar; {
		e := *l.farAt(k)
		if e.at > limit {
			earliest = min(earliest, e.at)
			k++
			continue
		}
		l.removeFar(k)
		if e.slot < streamTag {
			l.slots[e.slot].state = slotNear
		}
		l.push(e)
		moved = true
	}
	return moved, earliest
}

// farAt returns far entry k.
func (l *Loop) farAt(k int) *entry { return &l.q[len(l.q)-1-k] }

func (l *Loop) pushFar(e entry) {
	l.reserve()
	*l.farAt(l.nFar) = e
	if e.slot < streamTag {
		l.slots[e.slot].pos = int32(l.nFar)
	}
	l.nFar++
}

// removeFar swap-removes far entry k.
func (l *Loop) removeFar(k int) {
	l.nFar--
	if k != l.nFar {
		e := *l.farAt(l.nFar)
		*l.farAt(k) = e
		if e.slot < streamTag {
			l.slots[e.slot].pos = int32(k)
		}
	}
}

// reserve makes room in q for one more entry in either tier.
func (l *Loop) reserve() {
	if len(l.heap)+l.nFar == len(l.q) {
		l.resize(max(64, 2*len(l.q)))
	}
}

// resize moves both tiers into a new q of n entries. Far entries keep
// their index k, which counts from the end.
func (l *Loop) resize(n int) {
	q := make([]entry, n)
	copy(q, l.heap)
	copy(q[n-l.nFar:], l.q[len(l.q)-l.nFar:])
	l.q, l.heap = q, q[:len(l.heap)]
}

// addSat returns t+d, saturating at maxTime.
func addSat(t, d Time) Time {
	if t > maxTime-d {
		return maxTime
	}
	return t + d
}

// QueueLen returns the number of queued events.
func (l *Loop) QueueLen() int {
	n := len(l.heap) + l.nFar + l.behind
	if l.vacant {
		n--
	}
	return n
}

// --- 4-ary min-heap over entry values ---
//
// A 4-ary layout halves tree depth versus binary, trading slightly
// more comparisons per level for fewer cache-missing levels — the
// right trade for entries this small. Sift loops hole-shift instead
// of swapping: the moving entry is written once at its final position.
// Each placement of a slot's entry records the entry's index in the
// slot, which is what lets Cancel remove from the middle in O(depth).

func (l *Loop) place(h []entry, i int, e entry) {
	h[i] = e
	if e.slot < streamTag {
		l.slots[e.slot].pos = int32(i)
	}
}

// queue puts e in the tier its time belongs to.
func (l *Loop) queue(e entry) {
	if e.at <= l.limit {
		l.push(e)
	} else {
		l.pushFar(e)
	}
}

// push adds e to the heap, into the vacant root if there is one.
func (l *Loop) push(e entry) {
	if l.vacant {
		l.vacant = false
		l.siftDown(0, e)
		return
	}
	l.reserve()
	l.heap = l.q[:len(l.heap)+1]
	l.siftUp(len(l.heap)-1, e)
}

func (l *Loop) popRoot() {
	h := l.heap
	n := len(h) - 1
	e := h[n]
	h[n] = entry{}
	l.heap = h[:n]
	if n > 0 {
		l.siftDown(0, e)
	}
}

// removeAt deletes the entry at heap index i (used by Cancel).
func (l *Loop) removeAt(i int) {
	h := l.heap
	n := len(h) - 1
	e := h[n]
	h[n] = entry{}
	l.heap = h[:n]
	if i == n {
		return
	}
	if l.siftDown(i, e) == i {
		l.siftUp(i, e)
	}
}

func (l *Loop) siftUp(i int, e entry) {
	h := l.heap
	for i > 0 {
		p := (i - 1) >> 2
		if !e.less(h[p]) {
			break
		}
		l.place(h, i, h[p])
		i = p
	}
	l.place(h, i, e)
}

// siftDown places e at index i or below and returns where it went.
func (l *Loop) siftDown(i int, e entry) int {
	h := l.heap
	n := len(h)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		var m int
		if c+3 < n {
			// Four children: a branch-free tournament.
			a := c + lessBit(h[c+1], h[c])
			b := c + 2 + lessBit(h[c+3], h[c+2])
			m = a + lessBit(h[b], h[a])*(b-a)
		} else {
			m = c
			for j := c + 1; j < n; j++ {
				if h[j].less(h[m]) {
					m = j
				}
			}
		}
		if !h[m].less(e) {
			break
		}
		l.place(h, i, h[m])
		i = m
	}
	l.place(h, i, e)
	return i
}

// Uniform returns a duration drawn uniformly from [lo, hi].
func (l *Loop) Uniform(lo, hi time.Duration) time.Duration {
	if hi <= lo {
		return lo
	}
	return lo + time.Duration(l.rng.Int63n(int64(hi-lo)+1))
}

// Exp returns an exponentially distributed duration with the given
// mean, truncated at 1000x the mean to keep event horizons finite.
func (l *Loop) Exp(mean time.Duration) time.Duration {
	if mean <= 0 {
		return 0
	}
	d := time.Duration(l.rng.ExpFloat64() * float64(mean))
	if max := 1000 * mean; d > max {
		d = max
	}
	return d
}
