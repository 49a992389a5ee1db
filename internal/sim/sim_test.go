package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleRunsInOrder(t *testing.T) {
	l := NewLoop(1)
	var got []int
	l.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	l.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	l.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	l.RunAll()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
}

func TestEqualTimestampsFIFO(t *testing.T) {
	l := NewLoop(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		l.Schedule(5*time.Millisecond, func() { got = append(got, i) })
	}
	l.RunAll()
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated at %d: %v", i, got)
		}
	}
}

func TestNowAdvances(t *testing.T) {
	l := NewLoop(1)
	var at Time
	l.Schedule(42*time.Millisecond, func() { at = l.Now() })
	l.RunAll()
	if at != 42*time.Millisecond {
		t.Fatalf("Now inside event = %v, want 42ms", at)
	}
	if l.Now() != 42*time.Millisecond {
		t.Fatalf("Now after run = %v", l.Now())
	}
}

func TestRunDeadlineStopsAndAdvancesClock(t *testing.T) {
	l := NewLoop(1)
	ran := 0
	l.Schedule(10*time.Millisecond, func() { ran++ })
	l.Schedule(30*time.Millisecond, func() { ran++ })
	n := l.Run(20 * time.Millisecond)
	if n != 1 || ran != 1 {
		t.Fatalf("ran %d events before deadline, want 1", ran)
	}
	if l.Now() != 20*time.Millisecond {
		t.Fatalf("clock = %v, want deadline 20ms", l.Now())
	}
	l.Run(time.Second)
	if ran != 2 {
		t.Fatalf("second Run did not resume: ran=%d", ran)
	}
}

func TestCancelPreventsExecution(t *testing.T) {
	l := NewLoop(1)
	ran := false
	e := l.Schedule(time.Millisecond, func() { ran = true })
	l.Cancel(e)
	l.RunAll()
	if ran {
		t.Fatal("canceled event ran")
	}
	if l.Pending(e) {
		t.Fatal("canceled event still pending")
	}
}

func TestCancelFromEarlierEvent(t *testing.T) {
	l := NewLoop(1)
	ran := false
	later := l.Schedule(20*time.Millisecond, func() { ran = true })
	l.Schedule(10*time.Millisecond, func() { l.Cancel(later) })
	l.RunAll()
	if ran {
		t.Fatal("event canceled mid-run still executed")
	}
}

func TestSchedulingInsideEvents(t *testing.T) {
	l := NewLoop(1)
	var ticks []Time
	var tick func()
	tick = func() {
		ticks = append(ticks, l.Now())
		if len(ticks) < 5 {
			l.After(10*time.Millisecond, tick)
		}
	}
	l.After(0, tick)
	l.RunAll()
	if len(ticks) != 5 {
		t.Fatalf("got %d ticks, want 5", len(ticks))
	}
	for i, at := range ticks {
		if want := time.Duration(i) * 10 * time.Millisecond; at != want {
			t.Fatalf("tick %d at %v, want %v", i, at, want)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	l := NewLoop(1)
	l.Schedule(10*time.Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		l.Schedule(5*time.Millisecond, func() {})
	})
	l.RunAll()
}

func TestAfterClampsNegative(t *testing.T) {
	l := NewLoop(1)
	l.Schedule(10*time.Millisecond, func() {
		l.After(-time.Second, func() {})
	})
	l.RunAll() // must not panic
}

func TestHaltStopsLoop(t *testing.T) {
	l := NewLoop(1)
	ran := 0
	l.Schedule(1*time.Millisecond, func() { ran++; l.Halt() })
	l.Schedule(2*time.Millisecond, func() { ran++ })
	l.Run(time.Second)
	if ran != 1 {
		t.Fatalf("halt did not stop loop, ran=%d", ran)
	}
	if l.QueueLen() != 1 {
		t.Fatalf("queued after halt = %d, want 1", l.QueueLen())
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []int64 {
		l := NewLoop(99)
		var draws []int64
		var step func()
		n := 0
		step = func() {
			draws = append(draws, l.Rand().Int63n(1000))
			n++
			if n < 50 {
				l.After(l.Exp(time.Millisecond), step)
			}
		}
		l.After(0, step)
		l.RunAll()
		return draws
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestUniformBounds(t *testing.T) {
	l := NewLoop(7)
	lo, hi := 9*time.Millisecond, 11*time.Millisecond
	for i := 0; i < 1000; i++ {
		d := l.Uniform(lo, hi)
		if d < lo || d > hi {
			t.Fatalf("Uniform out of range: %v", d)
		}
	}
	if got := l.Uniform(hi, lo); got != hi {
		t.Fatalf("degenerate Uniform = %v, want lo", got)
	}
}

func TestExpMeanRoughlyCorrect(t *testing.T) {
	l := NewLoop(3)
	mean := 100 * time.Millisecond
	var sum time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		sum += l.Exp(mean)
	}
	got := sum / n
	if got < 90*time.Millisecond || got > 110*time.Millisecond {
		t.Fatalf("Exp mean = %v, want ~%v", got, mean)
	}
	if l.Exp(0) != 0 {
		t.Fatal("Exp(0) != 0")
	}
}

func TestProcessedCounts(t *testing.T) {
	l := NewLoop(1)
	for i := 0; i < 7; i++ {
		l.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	l.RunAll()
	if l.Processed() != 7 {
		t.Fatalf("Processed = %d, want 7", l.Processed())
	}
}

// Property: for any batch of events with random times, execution order
// is sorted by (time, schedule order).
func TestQuickExecutionOrderSorted(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		l := NewLoop(5)
		type rec struct {
			at  Time
			seq int
		}
		var got []rec
		for i, d := range delays {
			at := time.Duration(d) * time.Microsecond
			i := i
			l.Schedule(at, func() { got = append(got, rec{l.Now(), i}) })
		}
		l.RunAll()
		if len(got) != len(delays) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].at < got[i-1].at {
				return false
			}
			if got[i].at == got[i-1].at && got[i].seq < got[i-1].seq {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: canceling an arbitrary subset runs exactly the complement.
func TestQuickCancelSubset(t *testing.T) {
	f := func(delays []uint8, mask []bool) bool {
		l := NewLoop(5)
		ran := make(map[int]bool)
		events := make([]Event, len(delays))
		for i, d := range delays {
			i := i
			events[i] = l.Schedule(time.Duration(d)*time.Microsecond, func() { ran[i] = true })
		}
		canceled := make(map[int]bool)
		for i := range events {
			if i < len(mask) && mask[i] {
				l.Cancel(events[i])
				canceled[i] = true
			}
		}
		l.RunAll()
		for i := range events {
			if ran[i] == canceled[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(12))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// --- typed (zero-allocation) timer events ---

func TestScheduleTimerInterleavesWithClosures(t *testing.T) {
	l := NewLoop(1)
	var got []string
	h := func(env, arg any) { got = append(got, *arg.(*string)) }
	a, b := "timer-a", "timer-b"
	l.ScheduleTimer(20*time.Millisecond, h, nil, &a)
	l.Schedule(10*time.Millisecond, func() { got = append(got, "closure-1") })
	l.ScheduleTimer(10*time.Millisecond, h, nil, &b) // same time: FIFO after closure-1
	l.Schedule(30*time.Millisecond, func() { got = append(got, "closure-2") })
	l.RunAll()
	want := []string{"closure-1", "timer-b", "timer-a", "closure-2"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestTimerEnvArgDelivered(t *testing.T) {
	l := NewLoop(1)
	type box struct{ n int }
	env, arg := &box{1}, &box{2}
	l.AfterTimer(time.Millisecond, func(e, a any) {
		if e.(*box) != env || a.(*box) != arg {
			t.Error("env/arg not delivered intact")
		}
	}, env, arg)
	l.RunAll()
}

// A handle must go stale once its event runs: canceling it afterwards
// must not kill an unrelated event that recycled the same arena slot.
func TestStaleHandleCannotCancelRecycledSlot(t *testing.T) {
	l := NewLoop(1)
	first := l.Schedule(time.Millisecond, func() {})
	l.RunAll() // first's slot returns to the free list
	ran := false
	second := l.Schedule(2*time.Millisecond, func() { ran = true })
	l.Cancel(first) // stale: must be a no-op
	if !l.Pending(second) {
		t.Fatal("stale Cancel killed a recycled slot's event")
	}
	l.RunAll()
	if !ran {
		t.Fatal("second event did not run")
	}
}

func TestZeroEventSafe(t *testing.T) {
	l := NewLoop(1)
	var e Event
	l.Cancel(e) // no-op, no panic
	if l.Pending(e) {
		t.Fatal("zero Event reported pending")
	}
}

func TestCancelReleasesReferencesEarly(t *testing.T) {
	l := NewLoop(1)
	e := l.Schedule(time.Millisecond, func() {})
	l.Cancel(e)
	if s := &l.slots[e.slot-1]; s.fn != nil || s.h != nil || s.env != nil || s.arg != nil {
		t.Fatal("canceled slot retains callback references")
	}
}

func TestGrowPreallocates(t *testing.T) {
	l := NewLoop(1)
	l.Grow(1024)
	if len(l.q) < 1024 || cap(l.slots) < 1024 || cap(l.free) < 1024 {
		t.Fatalf("Grow did not pre-size: queue=%d slots=%d free=%d",
			len(l.q), cap(l.slots), cap(l.free))
	}
	// Growing must preserve queued events.
	hits := 0
	l.Schedule(time.Millisecond, func() { hits++ })
	l.Grow(4096)
	l.RunAll()
	if hits != 1 {
		t.Fatalf("event lost across Grow: hits=%d", hits)
	}
}

// The PCG must be a pure function of the seed and must differ across
// seeds.
func TestRandSeedDeterminism(t *testing.T) {
	var a, b, c Rand
	a.Seed(123)
	b.Seed(123)
	c.Seed(124)
	same, diff := true, false
	for i := 0; i < 64; i++ {
		x, y, z := a.Uint64(), b.Uint64(), c.Uint64()
		if x != y {
			same = false
		}
		if x != z {
			diff = true
		}
	}
	if !same {
		t.Fatal("same seed produced different streams")
	}
	if !diff {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRandInt63nBounds(t *testing.T) {
	var r Rand
	r.Seed(9)
	for _, n := range []int64{1, 2, 3, 7, 1000, 1 << 40} {
		for i := 0; i < 200; i++ {
			if v := r.Int63n(n); v < 0 || v >= n {
				t.Fatalf("Int63n(%d) = %d out of range", n, v)
			}
		}
	}
	counts := make([]int, 5)
	for i := 0; i < 50_000; i++ {
		counts[r.Int63n(5)]++
	}
	for v, c := range counts {
		if c < 9_000 || c > 11_000 {
			t.Fatalf("Int63n(5) skewed: value %d seen %d/50000", v, c)
		}
	}
}

func TestRandFloat64HalfOpen(t *testing.T) {
	var r Rand
	r.Seed(4)
	for i := 0; i < 100_000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", f)
		}
	}
}

func TestRandExpFloat64Mean(t *testing.T) {
	var r Rand
	r.Seed(6)
	const n = 200_000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	if mean := sum / n; mean < 0.98 || mean > 1.02 {
		t.Fatalf("exponential mean = %g, want ~1", mean)
	}
}

// A stream's pushes must come in time order and not in the past: both
// panic, since a stream runs its events in push order.
func TestStreamPushOutOfOrderPanics(t *testing.T) {
	l := NewLoop(1)
	s := l.NewStream(nopHandler, nil)
	mustPanic := func(what string, at Time) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		s.Push(at, nil)
	}
	s.Push(2*time.Millisecond, nil)
	mustPanic("a push before the previous one", time.Millisecond)
	s.Push(2*time.Millisecond, nil) // equal times are in order
	l.Run(5 * time.Millisecond)
	mustPanic("a push before now", 4*time.Millisecond)
	if n := l.Processed(); n != 2 {
		t.Fatalf("ran %d stream events, want 2", n)
	}
}
