// Package des is a discrete-event simulation kernel: an event calendar with a
// simulation clock, deterministic tie-breaking, and reproducible random
// variate streams. It substitutes for the CSIM library used by the paper's
// authors to implement the detailed network-level GPRS simulator.
//
// The kernel is event-oriented rather than process-oriented: model code
// schedules callbacks at future simulation times. Determinism is guaranteed
// for a fixed seed because ties in event time are broken by scheduling order.
//
// # Allocation discipline
//
// The steady-state event path is allocation-free: fired and discarded events
// are recycled through a per-Simulation freelist, so a long run allocates
// only while the calendar grows towards its peak size. Because event records
// are recycled, Schedule hands out value-type Handles carrying a generation
// number instead of raw event pointers: a Handle of an event that already
// fired (and whose record may since have been reused for an unrelated event)
// turns Cancel into a no-op instead of cancelling a stranger.
package des

import (
	"errors"
	"fmt"
	"math"
)

// ErrInvalidTime is returned when an event is scheduled in the past or at a
// non-finite time.
var ErrInvalidTime = errors.New("des: invalid event time")

// Event is a scheduled callback record. Model code never holds an Event
// directly — Schedule returns a Handle — because records are recycled through
// the simulation's freelist once they fire or their cancellation is
// collected.
type Event struct {
	// Time is the simulation time at which the event fires.
	Time float64
	// Action is invoked when the event fires.
	Action func()

	seq      uint64
	gen      uint64
	canceled bool
	index    int
}

// Handle is a cancellable reference to a scheduled event. The zero Handle is
// valid and refers to no event (Cancel is a no-op). A Handle expires when its
// event fires or its cancellation is collected: the underlying record is
// recycled for a future event, and the generation number the Handle carries
// stops matching, so Cancel and Canceled on an expired Handle are safe
// no-ops.
type Handle struct {
	ev  *Event
	gen uint64
}

// Cancel prevents the event from firing. Cancelling the zero Handle, an
// already fired, or an already cancelled event is a no-op.
func (h Handle) Cancel() {
	if h.ev != nil && h.ev.gen == h.gen {
		h.ev.canceled = true
	}
}

// Canceled reports whether the event is still pending and has been cancelled.
// It reports false for the zero Handle and for expired Handles (the event
// fired or its cancellation was collected).
func (h Handle) Canceled() bool {
	return h.ev != nil && h.ev.gen == h.gen && h.ev.canceled
}

// Pending reports whether the event is still scheduled (not yet fired,
// cancelled or collected).
func (h Handle) Pending() bool {
	return h.ev != nil && h.ev.gen == h.gen && !h.ev.canceled
}

// Time returns the absolute fire time of a pending event, or NaN for the
// zero Handle and for expired Handles.
func (h Handle) Time() float64 {
	if h.ev == nil || h.ev.gen != h.gen {
		return math.NaN()
	}
	return h.ev.Time
}

// eventBefore is the scheduling order of the event list: earlier time first,
// scheduling order (seq) breaking ties. seq is unique per Simulation, so the
// order is a strict total order.
func eventBefore(a, b *Event) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	return a.seq < b.seq
}

// binHeap is a hand-rolled binary heap over (Time, seq). It avoids the
// interface boxing and indirect calls of container/heap on the hottest loop
// of the simulator.
type binHeap struct {
	a []*Event
}

func (h *binHeap) size() int { return len(h.a) }

func (h *binHeap) peek() *Event {
	if len(h.a) == 0 {
		return nil
	}
	return h.a[0]
}

func (h *binHeap) push(ev *Event) {
	ev.index = len(h.a)
	h.a = append(h.a, ev)
	h.siftUp(ev.index)
}

func (h *binHeap) pop() *Event {
	n := len(h.a)
	if n == 0 {
		return nil
	}
	root := h.a[0]
	last := h.a[n-1]
	h.a[n-1] = nil
	h.a = h.a[:n-1]
	if n > 1 {
		h.a[0] = last
		last.index = 0
		h.siftDown(0)
	}
	return root
}

func (h *binHeap) siftUp(i int) {
	ev := h.a[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !eventBefore(ev, h.a[parent]) {
			break
		}
		h.a[i] = h.a[parent]
		h.a[i].index = i
		i = parent
	}
	h.a[i] = ev
	ev.index = i
}

func (h *binHeap) siftDown(i int) {
	n := len(h.a)
	ev := h.a[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && eventBefore(h.a[r], h.a[child]) {
			child = r
		}
		if !eventBefore(h.a[child], ev) {
			break
		}
		h.a[i] = h.a[child]
		h.a[i].index = i
		i = child
	}
	h.a[i] = ev
	ev.index = i
}

// Simulation owns the event calendar and the simulation clock. It is not safe
// for concurrent use; a simulation run is single-threaded (replications can
// run in parallel, each with its own Simulation).
type Simulation struct {
	now    float64
	list   binHeap
	seq    uint64
	events uint64

	// free is the event-record freelist: fired and collected events are
	// recycled here, making the steady-state event path allocation-free.
	free []*Event

	// poolHits and poolMisses count freelist reuse versus fresh allocations;
	// they feed the runtime telemetry's pool-hit-rate metric. Plain counters:
	// a Simulation is single-goroutine by contract.
	poolHits, poolMisses uint64
}

// NewSimulation returns an empty simulation with the clock at time 0.
func NewSimulation() *Simulation { return &Simulation{} }

// Now returns the current simulation time in seconds.
func (s *Simulation) Now() float64 { return s.now }

// ProcessedEvents returns the number of events executed so far.
func (s *Simulation) ProcessedEvents() uint64 { return s.events }

// Pending returns the number of events currently scheduled (including
// cancelled events that have not yet been discarded).
func (s *Simulation) Pending() int { return s.list.size() }

// FreeEvents returns the current size of the event freelist (recycled
// records awaiting reuse). It exists for allocation-budget tests.
func (s *Simulation) FreeEvents() int { return len(s.free) }

// acquire takes an event record off the freelist, or allocates one.
func (s *Simulation) acquire() *Event {
	if n := len(s.free); n > 0 {
		ev := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		s.poolHits++
		return ev
	}
	s.poolMisses++
	return &Event{}
}

// PoolStats returns the event-record freelist's reuse counters: hits are
// Schedule calls served from recycled records, misses are fresh allocations.
func (s *Simulation) PoolStats() (hits, misses uint64) {
	return s.poolHits, s.poolMisses
}

// release recycles an event record. Bumping the generation expires every
// Handle pointing at the record; dropping the Action lets the closure (and
// whatever it captures) go as soon as the model does.
func (s *Simulation) release(ev *Event) {
	ev.gen++
	ev.Action = nil
	ev.canceled = false
	s.free = append(s.free, ev)
}

// Schedule registers action to run at absolute simulation time t and returns
// a handle that can be used to cancel it.
func (s *Simulation) Schedule(t float64, action func()) (Handle, error) {
	if math.IsNaN(t) || math.IsInf(t, 0) || t < s.now {
		return Handle{}, fmt.Errorf("%w: t = %v (now %v)", ErrInvalidTime, t, s.now)
	}
	if action == nil {
		return Handle{}, fmt.Errorf("%w: nil action", ErrInvalidTime)
	}
	ev := s.acquire()
	ev.Time = t
	ev.Action = action
	ev.seq = s.seq
	s.seq++
	s.list.push(ev)
	return Handle{ev: ev, gen: ev.gen}, nil
}

// ScheduleAfter registers action to run delay seconds after the current
// simulation time.
func (s *Simulation) ScheduleAfter(delay float64, action func()) (Handle, error) {
	return s.Schedule(s.now+delay, action)
}

// Step executes the next pending event. It returns false when the calendar is
// empty.
func (s *Simulation) Step() bool {
	for {
		ev := s.list.pop()
		if ev == nil {
			return false
		}
		if ev.canceled {
			s.release(ev)
			continue
		}
		s.now = ev.Time
		s.events++
		action := ev.Action
		// Release before firing: the handle of a firing event expires the
		// moment it leaves the calendar, so a Cancel from within its own
		// action (or any later stale Cancel) cannot touch the recycled
		// record.
		s.release(ev)
		action()
		return true
	}
}

// RunUntil executes events until the simulation clock reaches endTime or the
// calendar becomes empty. Events scheduled exactly at endTime are executed.
// It returns the number of events executed.
func (s *Simulation) RunUntil(endTime float64) uint64 {
	var executed uint64
	for s.list.size() > 0 {
		next := s.peekTime()
		if next > endTime {
			break
		}
		if s.Step() {
			executed++
		}
	}
	if s.now < endTime {
		s.now = endTime
	}
	return executed
}

// Run executes events until the calendar is empty and returns the number of
// events executed.
func (s *Simulation) Run() uint64 {
	var executed uint64
	for s.Step() {
		executed++
	}
	return executed
}

// peekTime returns the time of the earliest non-cancelled event, collecting
// cancelled events it encounters, or +Inf when none remain.
func (s *Simulation) peekTime() float64 {
	for {
		ev := s.list.peek()
		if ev == nil {
			return math.Inf(1)
		}
		if ev.canceled {
			s.list.pop()
			s.release(ev)
			continue
		}
		return ev.Time
	}
}
