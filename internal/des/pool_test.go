package des

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestEventPoolRecycling pins the freelist contract: a fired event's record
// returns to the pool, is handed out again by the next Schedule, and carries
// no stale state into its next life.
func TestEventPoolRecycling(t *testing.T) {
	sim := NewSimulation()
	h1, err := sim.Schedule(1, func() {})
	if err != nil {
		t.Fatal(err)
	}
	if !sim.Step() {
		t.Fatal("Step should fire the event")
	}
	if sim.FreeEvents() != 1 {
		t.Fatalf("free events = %d, want 1 (fired record recycled)", sim.FreeEvents())
	}
	if h1.Pending() || h1.Canceled() {
		t.Error("handle of a fired event must be expired")
	}
	if !math.IsNaN(h1.Time()) {
		t.Error("expired handle should report NaN time")
	}

	// A cancelled-then-recycled record must not leak its cancellation.
	fired := false
	h2, err := sim.Schedule(2, func() { fired = true })
	if err != nil {
		t.Fatal(err)
	}
	if sim.FreeEvents() != 0 {
		t.Fatalf("free events = %d, want 0 (record reused)", sim.FreeEvents())
	}
	// The stale handle must not be able to cancel the reused record.
	h1.Cancel()
	if h2.Canceled() {
		t.Fatal("stale handle cancelled an unrelated reused event")
	}
	sim.Run()
	if !fired {
		t.Fatal("reused event did not fire")
	}

	// And a genuinely cancelled event is collected, recycled, and its reuse
	// starts uncancelled.
	h3, _ := sim.Schedule(3, func() {})
	h3.Cancel()
	sim.Run()
	h4, _ := sim.Schedule(4, func() {})
	if h4.Canceled() {
		t.Error("recycled record carried a stale cancellation")
	}
	if !h4.Pending() {
		t.Error("fresh event should be pending")
	}
	h3.Cancel() // stale: must be a no-op
	if h4.Canceled() {
		t.Error("stale cancel after recycling reached the new event")
	}
}

// TestSelfCancelDuringAction pins the release-before-fire rule: an action
// cancelling its own (already fired) event is a no-op and cannot corrupt the
// record the freelist may immediately hand to a nested Schedule.
func TestSelfCancelDuringAction(t *testing.T) {
	sim := NewSimulation()
	var self Handle
	nestedFired := false
	self, _ = sim.Schedule(1, func() {
		self.Cancel() // our own record: already released, must be a no-op
		if _, err := sim.ScheduleAfter(1, func() { nestedFired = true }); err != nil {
			t.Errorf("nested schedule: %v", err)
		}
	})
	sim.Run()
	if !nestedFired {
		t.Fatal("self-cancel leaked into the recycled record of the nested event")
	}
}

// TestScheduleFireSteadyStateAllocs pins the kernel's allocation-free
// steady-state contract: once the freelist has warmed up, a schedule/fire
// cycle performs zero allocations.
func TestScheduleFireSteadyStateAllocs(t *testing.T) {
	sim := NewSimulation()
	action := func() {}
	cycle := func() {
		for i := 0; i < 64; i++ {
			if _, err := sim.ScheduleAfter(float64(i%7), action); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 64; i++ {
			sim.Step()
		}
	}
	// Warm the freelist and the heap's capacity.
	for i := 0; i < 64; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(10, cycle); avg > 0 {
		t.Errorf("%.2f allocs per 64-event cycle, want 0", avg)
	}
}

// TestEventOrderMatchesSortedOracle is the randomized order property of the
// event list. A random program schedules events at clustered times with
// exact ties, at dispersed and fine-grained times, schedules more from inside
// actions, and cancels events before and during the run. Every Schedule call
// is logged with its scheduling order; the fired sequence must equal the
// log's uncancelled entries sorted by (time, scheduling order), and every
// event must fire at its scheduled time. The sort is a valid oracle because
// an action can only schedule at or after the current time with a later
// scheduling order, so the fire order never runs backwards.
func TestEventOrderMatchesSortedOracle(t *testing.T) {
	type entry struct {
		at       float64
		order    int
		canceled bool
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sim := NewSimulation()
		var log []entry
		var handles []Handle
		var fired []int
		cancel := func(i int) {
			if handles[i].Pending() {
				handles[i].Cancel()
				log[i].canceled = true
			}
		}
		var schedule func(at float64)
		schedule = func(at float64) {
			id := len(log)
			log = append(log, entry{at: at, order: id})
			h, err := sim.Schedule(at, func() {
				if sim.Now() != at {
					t.Errorf("seed %d: event %d fired at %v, scheduled for %v", seed, id, sim.Now(), at)
				}
				fired = append(fired, id)
				switch id % 6 {
				case 0: // nested schedule, sometimes tying with the current time
					schedule(sim.Now() + float64(rng.Intn(3))*0.25)
				case 1: // cancel a random event from inside an action
					cancel(rng.Intn(len(handles)))
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			handles = append(handles, h)
		}
		for i := 0; i < 400; i++ {
			switch rng.Intn(4) {
			case 0: // clustered times with frequent exact ties
				schedule(float64(rng.Intn(8)))
			case 1: // dispersed times
				schedule(rng.Float64() * 1e4)
			case 2: // fine-grained fractional times
				schedule(rng.Float64())
			default: // a coarse grid around the origin
				schedule(float64(rng.Intn(100)) / 16)
			}
		}
		for i := 0; i < 40; i++ {
			cancel(rng.Intn(len(handles)))
		}
		// Stop at a few horizons on the way, collecting cancelled events at
		// the heap top, then drain.
		for _, until := range []float64{0.5, 3, 3, 100} {
			sim.RunUntil(until)
		}
		sim.Run()

		var want []int
		for _, e := range log {
			if !e.canceled {
				want = append(want, e.order)
			}
		}
		sort.SliceStable(want, func(i, j int) bool { return log[want[i]].at < log[want[j]].at })
		if len(fired) != len(want) {
			t.Fatalf("seed %d: %d events fired, oracle expects %d", seed, len(fired), len(want))
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("seed %d: fire %d is event %d (t=%v), oracle expects event %d (t=%v)",
					seed, i, fired[i], log[fired[i]].at, want[i], log[want[i]].at)
			}
		}
		if sim.Pending() != 0 {
			t.Fatalf("seed %d: %d events left pending after Run", seed, sim.Pending())
		}
	}
}
