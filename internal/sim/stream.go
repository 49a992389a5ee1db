package sim

import "fmt"

// Stream is a FIFO of events that all run h(env, arg) with one handler
// and one env; only the arg differs. Push appends an event, which takes
// its seq from the loop's counter then, exactly as ScheduleTimer would.
// Times must not decrease along a stream, so the stream's events run in
// the order they were pushed, each at its own time and interleaved with
// every other event by (at, seq).
//
// Only the stream's head is in the loop's queue; the rest wait in a
// ring that grows to the stream's high-water mark and is reused after
// that. A stream event has no arena slot and no handle: it cannot be
// canceled, and pushing one does not allocate once the ring has grown.
type Stream struct {
	loop *Loop
	h    Handler
	env  any
	tag  uint32 // streamTag plus the index in loop.streams

	buf        []streamEvent // power-of-two ring
	head, tail uint64        // next to run, next to push
	last       Time          // time of the latest push
}

type streamEvent struct {
	at  Time
	seq uint64
	arg any
}

// NewStream returns an empty stream whose events run h(env, arg) on l.
// As with ScheduleTimer, h should be a package-level function and env
// and the args pointers or nil. A stream lives as long as its loop.
func (l *Loop) NewStream(h Handler, env any) *Stream {
	s := &Stream{loop: l, h: h, env: env, tag: streamTag + uint32(len(l.streams))}
	l.streams = append(l.streams, s)
	return s
}

// Len returns the number of events queued on the stream.
func (s *Stream) Len() int { return int(s.tail - s.head) }

// Push queues h(env, arg) to run at absolute virtual time at. Pushing
// before the loop's current time or before the stream's previous push
// panics: both would be model bugs.
func (s *Stream) Push(at Time, arg any) {
	l := s.loop
	if at < l.now || at < s.last {
		panic(fmt.Sprintf("sim: stream push at %v before now %v or the previous push at %v", at, l.now, s.last))
	}
	s.last = at
	l.seq++
	if s.Len() == len(s.buf) {
		s.grow()
	}
	s.buf[s.tail&uint64(len(s.buf)-1)] = streamEvent{at: at, seq: l.seq, arg: arg}
	if s.head == s.tail {
		l.queue(entry{at: at, seq: l.seq, slot: s.tag})
	} else {
		l.behind++
	}
	s.tail++
}

// run runs the stream's head, whose entry is the loop's vacant root.
// The next event, if any, is queued first, so it usually fills the
// root.
func (s *Stream) run() {
	l := s.loop
	mask := uint64(len(s.buf) - 1)
	ev := &s.buf[s.head&mask]
	arg := ev.arg
	ev.arg = nil // the ring must not pin a finished event's payload
	s.head++
	if s.head != s.tail {
		l.behind--
		next := &s.buf[s.head&mask]
		l.queue(entry{at: next.at, seq: next.seq, slot: s.tag})
	}
	s.h(s.env, arg)
}

// grow doubles the ring, moving the queued events to its front.
func (s *Stream) grow() {
	buf := make([]streamEvent, max(1, 2*len(s.buf)))
	for i, k := 0, s.head; k != s.tail; i, k = i+1, k+1 {
		buf[i] = s.buf[k&uint64(len(s.buf)-1)]
	}
	s.tail -= s.head
	s.head = 0
	s.buf = buf
}
