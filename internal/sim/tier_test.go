package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// Differential test of the two-tier queue and its streams against a
// reference model: a flat list scanned for the least (at, seq) key,
// obviously correct and obviously slow, in which a stream push is an
// ordinary schedule. A random script of schedules (near, at the tier
// boundary, far), stream pushes, cancels (in either tier, and of stale
// handles), Runs with deadlines inside the far tier and RunAlls drives
// both in lockstep. Event callbacks, which run while the loop's root is
// vacant, schedule, push, cancel and Halt in turn, so later Runs resume
// halted ones. After every step the run order, Now, Processed, QueueLen
// (also as each callback saw it) and Pending of every handle ever
// issued must agree.

// queue is the surface both implementations expose to the script.
type queue interface {
	Now() Time
	schedule(at Time, fn func()) any
	push(stream int, at Time, fn func())
	cancel(h any)
	pending(h any) bool
	Run(deadline Time) uint64
	RunAll() uint64
	Halt()
	Processed() uint64
	QueueLen() int
}

const testStreams = 3

type loopQueue struct {
	*Loop
	streams []*Stream
	// vacantCancels counts callbacks' cancels of near-tier events made
	// while the root is vacant.
	vacantCancels *int
}

func newLoopQueue(l *Loop, vacantCancels *int) loopQueue {
	q := loopQueue{Loop: l, vacantCancels: vacantCancels}
	for range testStreams {
		q.streams = append(q.streams, l.NewStream(runFunc, nil))
	}
	return q
}

// runFunc is the test streams' handler: each event's arg is its callback.
func runFunc(_, arg any) { arg.(func())() }

func (q loopQueue) schedule(at Time, fn func()) any { return q.Schedule(at, fn) }
func (q loopQueue) push(k int, at Time, fn func())  { q.streams[k].Push(at, fn) }
func (q loopQueue) pending(h any) bool              { return q.Pending(h.(Event)) }
func (q loopQueue) cancel(h any) {
	e := h.(Event)
	if q.vacant && q.Pending(e) && q.slots[e.slot-1].state == slotNear {
		*q.vacantCancels++
	}
	q.Cancel(e)
}

type modelEvent struct {
	at      Time
	seq     uint64
	fn      func()
	pending bool
}

type model struct {
	now    Time
	seq    uint64
	queued []*modelEvent
	nRun   uint64
	halted bool
}

func (m *model) Now() Time         { return m.now }
func (m *model) Halt()             { m.halted = true }
func (m *model) Processed() uint64 { return m.nRun }
func (m *model) QueueLen() int     { return len(m.queued) }
func (m *model) pending(h any) bool {
	return h.(*modelEvent).pending
}

func (m *model) schedule(at Time, fn func()) any {
	if at < m.now {
		panic("model: schedule in the past")
	}
	m.seq++
	e := &modelEvent{at: at, seq: m.seq, fn: fn, pending: true}
	m.queued = append(m.queued, e)
	return e
}

func (m *model) push(_ int, at Time, fn func()) { m.schedule(at, fn) }

func (m *model) cancel(h any) {
	e := h.(*modelEvent)
	if !e.pending {
		return
	}
	e.pending = false
	for i, q := range m.queued {
		if q == e {
			m.queued = append(m.queued[:i], m.queued[i+1:]...)
			return
		}
	}
}

// earliest returns the index of the least (at, seq) queued event.
func (m *model) earliest() int {
	best := 0
	for i, e := range m.queued {
		b := m.queued[best]
		if e.at < b.at || e.at == b.at && e.seq < b.seq {
			best = i
		}
	}
	return best
}

func (m *model) Run(deadline Time) uint64 {
	m.halted = false
	start := m.nRun
	for len(m.queued) > 0 && !m.halted {
		i := m.earliest()
		e := m.queued[i]
		if e.at > deadline {
			break
		}
		m.queued = append(m.queued[:i], m.queued[i+1:]...)
		e.pending = false
		m.now = e.at
		e.fn()
		m.nRun++
	}
	if m.now < deadline && !m.halted {
		m.now = deadline
	}
	return m.nRun - start
}

func (m *model) RunAll() uint64 {
	m.halted = false
	start := m.nRun
	for len(m.queued) > 0 && !m.halted {
		i := m.earliest()
		e := m.queued[i]
		m.queued = append(m.queued[:i], m.queued[i+1:]...)
		e.pending = false
		m.now = e.at
		e.fn()
		m.nRun++
	}
	return m.nRun - start
}

type fired struct {
	id   int
	at   Time
	qlen int // QueueLen inside the callback
}

// world is one implementation plus the script state that lives inside
// it: handles by id, each stream's latest push, and the order events
// ran in. Callbacks draw from the world's own RNG; both worlds seed it
// alike, so they draw alike as long as they run events in the same
// order.
type world struct {
	q       queue
	rng     *rand.Rand
	handles []any // an Event or *modelEvent, or *streamed
	last    [testStreams]Time
	trace   []fired
}

// streamed is the handle of a stream event, which the loop gives none:
// it is pending until its callback runs.
type streamed struct{ pending bool }

func (w *world) schedule(at Time) {
	id := len(w.handles)
	w.handles = append(w.handles, nil)
	w.handles[id] = w.q.schedule(at, func() { w.fire(id) })
}

// push appends an event to stream k, d after the later of now and the
// stream's previous push.
func (w *world) push(k int, d time.Duration) {
	id := len(w.handles)
	h := &streamed{pending: true}
	w.handles = append(w.handles, h)
	at := max(w.q.Now(), w.last[k]) + d
	w.last[k] = at
	w.q.push(k, at, func() { h.pending = false; w.fire(id) })
}

// cancel cancels handle id; stream events cannot be canceled.
func (w *world) cancel(id int) {
	if _, ok := w.handles[id].(*streamed); !ok {
		w.q.cancel(w.handles[id])
	}
}

func (w *world) pending(id int) bool {
	if h, ok := w.handles[id].(*streamed); ok {
		return h.pending
	}
	return w.q.pending(w.handles[id])
}

// fire is every event's callback: record the run, then maybe schedule
// a follow-up, push onto a stream, cancel some handle (possibly stale,
// possibly itself) or halt. Under one child per two events the chains
// die out, so RunAll returns.
func (w *world) fire(id int) {
	w.trace = append(w.trace, fired{id, w.q.Now(), w.q.QueueLen()})
	switch r := w.rng.Intn(12); {
	case r < 4:
		w.schedule(w.q.Now() + randDelay(w.rng))
	case r < 6:
		w.push(w.rng.Intn(testStreams), randDelay(w.rng))
	case r < 9:
		w.cancel(w.rng.Intn(len(w.handles)))
	case r == 9:
		w.q.Halt()
	}
}

// randDelay mixes the delays a network model schedules: ties, packet
// hops and timers seconds out.
func randDelay(r *rand.Rand) time.Duration {
	switch r.Intn(4) {
	case 0:
		return time.Duration(r.Intn(3))
	case 1:
		return time.Duration(r.Int63n(int64(time.Millisecond)))
	case 2:
		return time.Duration(r.Int63n(int64(50 * time.Millisecond)))
	default:
		return time.Second + time.Duration(r.Int63n(int64(10*time.Second)))
	}
}

func TestTwoTierMatchesReferenceModel(t *testing.T) {
	var nearCancels, farCancels, farRuns, vacantCancels, farStreamHeads int
	for seed := int64(1); seed <= 30; seed++ {
		l := NewLoop(seed)
		worlds := []*world{
			{q: newLoopQueue(l, &vacantCancels), rng: rand.New(rand.NewSource(seed))},
			{q: &model{}, rng: rand.New(rand.NewSource(seed))},
		}
		script := rand.New(rand.NewSource(-seed))
		for step := 0; step < 400; step++ {
			for _, e := range l.q[len(l.q)-l.nFar:] {
				if e.slot >= streamTag {
					farStreamHeads++
				}
			}
			now := l.Now()
			boundary := max(l.limit, now)
			var op string
			var apply func(w *world)
			switch r := script.Intn(20); {
			case r < 1:
				// A burst that outgrows the queue's array while both
				// tiers hold entries.
				var ats []Time
				for range 50 {
					ats = append(ats, now+randDelay(script))
				}
				op, apply = "schedule a burst", func(w *world) {
					for _, at := range ats {
						w.schedule(at)
					}
				}
			case r < 4:
				at := now + randDelay(script)
				op, apply = fmt.Sprintf("schedule %v", at), func(w *world) { w.schedule(at) }
			case r < 6:
				at := boundary + time.Duration(script.Intn(3))
				op, apply = fmt.Sprintf("schedule at boundary %v", at), func(w *world) { w.schedule(at) }
			case r < 7:
				at := boundary + time.Second + time.Duration(script.Int63n(int64(time.Minute)))
				op, apply = fmt.Sprintf("schedule far %v", at), func(w *world) { w.schedule(at) }
			case r < 8:
				// At or just past where the next refill may put the
				// boundary: span halves, stays or doubles.
				at := boundary + l.span<<script.Intn(3)/2 + time.Duration(script.Intn(3))
				op, apply = fmt.Sprintf("schedule at next boundary %v", at), func(w *world) { w.schedule(at) }
			case r < 10:
				k, d := script.Intn(testStreams), randDelay(script)
				op, apply = fmt.Sprintf("push %v on stream %d", d, k), func(w *world) { w.push(k, d) }
			case r < 13:
				n := len(worlds[0].handles)
				if n == 0 {
					continue
				}
				id := script.Intn(n)
				if ev, ok := worlds[0].handles[id].(Event); ok && l.Pending(ev) {
					if l.slots[ev.slot-1].state == slotFar {
						farCancels++
					} else {
						nearCancels++
					}
				}
				op, apply = fmt.Sprintf("cancel %d", id), func(w *world) { w.cancel(id) }
			case r < 17:
				deadline := now + randDelay(script)
				if script.Intn(2) == 0 && l.nFar > 0 {
					// Inside the far tier: past the boundary but short
					// of some far events.
					deadline = boundary + time.Duration(script.Int63n(int64(2*time.Second)))
					farRuns++
				}
				op, apply = fmt.Sprintf("run to %v", deadline), func(w *world) { w.q.Run(deadline) }
			default:
				op, apply = "run all", func(w *world) { w.q.RunAll() }
			}
			for _, w := range worlds {
				apply(w)
			}
			if err := compareWorlds(worlds[0], worlds[1]); err != nil {
				t.Fatalf("seed %d step %d (%s): %v", seed, step, op, err)
			}
		}
	}
	if nearCancels == 0 || farCancels == 0 || farRuns == 0 || vacantCancels == 0 || farStreamHeads == 0 {
		t.Fatalf("script missed a case: near cancels %d, far cancels %d, far-tier deadlines %d, "+
			"cancels with the root vacant %d, stream heads seen in the far tier %d",
			nearCancels, farCancels, farRuns, vacantCancels, farStreamHeads)
	}
}

func compareWorlds(a, b *world) error {
	if len(a.trace) != len(b.trace) {
		return fmt.Errorf("ran %d events, model ran %d", len(a.trace), len(b.trace))
	}
	for i := range a.trace {
		if a.trace[i] != b.trace[i] {
			return fmt.Errorf("event %d of the run: got %+v, model %+v", i, a.trace[i], b.trace[i])
		}
	}
	if a.q.Now() != b.q.Now() {
		return fmt.Errorf("Now %v, model %v", a.q.Now(), b.q.Now())
	}
	if a.q.Processed() != b.q.Processed() {
		return fmt.Errorf("Processed %d, model %d", a.q.Processed(), b.q.Processed())
	}
	if a.q.QueueLen() != b.q.QueueLen() {
		return fmt.Errorf("QueueLen %d, model %d", a.q.QueueLen(), b.q.QueueLen())
	}
	for id := range a.handles {
		if pa, pb := a.pending(id), b.pending(id); pa != pb {
			return fmt.Errorf("Pending(handle %d) = %v, model %v", id, pa, pb)
		}
	}
	return nil
}
