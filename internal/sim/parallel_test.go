package sim

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"phishare/internal/units"
)

// The parallel executor's contract is bit-identical outcomes: every observable
// — the order cross-node effects fire in, the clock each one sees, the total
// step count — must match a serial run of the same workload exactly. The
// tests here drive a synthetic workload whose per-event behavior is a pure
// function of the event's identity (a splitmix64 hash), so the behavior
// cannot depend on execution interleaving; any divergence between the serial
// and parallel logs is an executor bug, not a workload artifact.

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4b290
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// synthWorkload drives eng with a branching event tree across nLanes node
// lanes plus global barrier events, logging every observable effect through
// the canonical (Global/barrier) context into out.
//
// Adversarial shapes covered, per the barrier-correctness checklist:
//   - same-tick events on different lanes (children scheduled with delta 0,
//     and barrier events fanning out to several lanes at one instant);
//   - a barrier event at the same tick as pending lane events, so the window
//     boundary rule (run iff the assigned seq precedes the global's) decides;
//   - lane timers started and stopped mid-epoch;
//   - deferred global closures scheduling follow-up globals exactly at the
//     lookahead bound.
type synthWorkload struct {
	eng   *Engine
	lanes []*Lane
	out   *[]string
	seed  uint64
	// lookahead mirrors the engine's, so deferred closures can schedule
	// globals legally in both serial and parallel runs.
	lookahead units.Tick
}

const synthMaxGen = 5

func (s *synthWorkload) log(kind string, lane, id int) {
	*s.out = append(*s.out, fmt.Sprintf("%s t=%d lane=%d id=%d", kind, s.eng.Now(), lane, id))
}

// laneEvent is one node-confined event. gen bounds the branching depth; all
// timing and fan-out decisions hash from (seed, id) only.
func (s *synthWorkload) laneEvent(lane, id, gen int) func() {
	return func() {
		l := s.lanes[lane]
		h := splitmix64(s.seed ^ uint64(id)*0x9e37)
		// Canonical-order observable: deferred to the walk in parallel mode,
		// immediate in serial mode; both land in serial order.
		l.Global(func() { s.log("L", lane, id) })
		if gen >= synthMaxGen {
			return
		}
		// Spawn 0–2 same-lane children, deltas 0–3 (delta 0 exercises
		// same-tick tie-breaking against both siblings and barrier events).
		for k := 0; k < int(h%3); k++ {
			ck := splitmix64(h + uint64(k))
			child := id*7 + k + 1
			l.After(units.Tick(ck%4), s.laneEvent(lane, child, gen+1))
		}
		// Sometimes start a lane timer and maybe stop it in a same-tick
		// follow-up — exercising the pooled-timer path inside epochs.
		if h%5 == 0 {
			tm := l.AfterTimer(units.Tick(h%7), s.laneEvent(lane, id*7+5, gen+1))
			if h%10 == 0 {
				l.After(0, func() { tm.Stop() })
			}
		}
		// Sometimes cause a cross-node effect: legal only via Global, and any
		// global event it schedules must respect the lookahead.
		if h%4 == 0 {
			gid := id*7 + 6
			l.Global(func() {
				s.log("D", lane, id)
				delay := s.lookahead + units.Tick(h%3)
				s.eng.After(delay, s.globalEvent(gid, gen+1))
			})
		}
	}
}

// globalEvent is a cross-node barrier event: it sees and mutates state on
// several lanes at one instant, the scheduler/negotiator shape.
func (s *synthWorkload) globalEvent(id, gen int) func() {
	return func() {
		s.log("G", -1, id)
		if gen >= synthMaxGen {
			return
		}
		h := splitmix64(s.seed ^ uint64(id)*0xc2b2)
		// Fan out to two lanes at the same tick (delta 0): the classic
		// adversarial case — cross-lane same-instant events whose relative
		// order is fixed by scheduling order, not lane id.
		a := int(h % uint64(len(s.lanes)))
		b := int((h >> 8) % uint64(len(s.lanes)))
		s.lanes[a].After(0, s.laneEvent(a, id*7+1, gen+1))
		s.lanes[b].After(units.Tick(h%2), s.laneEvent(b, id*7+2, gen+1))
		if h%3 == 0 {
			s.eng.After(units.Tick(1+h%5), s.globalEvent(id*7+3, gen+1))
		}
	}
}

// runSynth executes the workload and returns the observable log and the
// final (clock, steps) pair.
func runSynth(seed uint64, parallel bool, workers int) ([]string, units.Tick, uint64) {
	const nLanes = 4
	const lookahead = 5
	eng := New()
	if parallel {
		eng.SetParallel(workers, lookahead)
	}
	var out []string
	s := &synthWorkload{eng: eng, out: &out, seed: seed, lookahead: lookahead}
	for i := 0; i < nLanes; i++ {
		s.lanes = append(s.lanes, eng.NodeLane(i))
	}
	h := splitmix64(seed)
	for i := 0; i < nLanes; i++ {
		s.lanes[i].At(units.Tick(splitmix64(h+uint64(i))%4), s.laneEvent(i, i+1, 0))
	}
	// A barrier event guaranteed to collide with first-epoch lane events.
	eng.At(2, s.globalEvent(1000, 0))
	end := eng.Run()
	return out, end, eng.Steps()
}

// TestParallelBarrierEquivalence is the cross-lane adversarial barrier test:
// for 50 seeds, a workload of same-tick cross-lane events, barrier globals,
// stopped timers and deferred closures
// must produce a bit-identical observable log, final clock and step count
// under serial execution, single-worker parallel execution, and 4-worker
// parallel execution.
func TestParallelBarrierEquivalence(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		wantLog, wantEnd, wantSteps := runSynth(seed, false, 0)
		if len(wantLog) == 0 {
			t.Fatalf("seed %d: empty serial log, workload generator broken", seed)
		}
		for _, workers := range []int{1, 4} {
			gotLog, gotEnd, gotSteps := runSynth(seed, true, workers)
			if gotEnd != wantEnd || gotSteps != wantSteps {
				t.Fatalf("seed %d workers %d: end/steps (%v, %d) != serial (%v, %d)",
					seed, workers, gotEnd, gotSteps, wantEnd, wantSteps)
			}
			if !reflect.DeepEqual(gotLog, wantLog) {
				for i := range wantLog {
					if i >= len(gotLog) || gotLog[i] != wantLog[i] {
						t.Fatalf("seed %d workers %d: log diverges at %d:\n serial:   %q\n parallel: %q",
							seed, workers, i, wantLog[i], eltOr(gotLog, i))
					}
				}
				t.Fatalf("seed %d workers %d: parallel log has %d extra entries, first %q",
					seed, workers, len(gotLog)-len(wantLog), gotLog[len(wantLog)])
			}
		}
	}
}

func eltOr(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return "<missing>"
}

// TestParallelTakesEpochPath proves the equivalence above is not vacuous:
// the parallel runs actually execute epoch windows rather than degenerating
// into an all-barrier serial walk.
func TestParallelTakesEpochPath(t *testing.T) {
	const lookahead = 5
	eng := New()
	eng.SetParallel(4, lookahead)
	var out []string
	s := &synthWorkload{eng: eng, out: &out, seed: 7, lookahead: lookahead}
	for i := 0; i < 4; i++ {
		s.lanes = append(s.lanes, eng.NodeLane(i))
	}
	for i := 0; i < 4; i++ {
		s.lanes[i].At(0, s.laneEvent(i, i+1, 0))
	}
	eng.Run()
	if eng.Epochs() == 0 {
		t.Fatal("parallel run executed zero epochs: everything went through the barrier path")
	}
	if eng.Steps() <= eng.Epochs() {
		t.Fatalf("epochs (%d) should batch multiple steps (%d)", eng.Epochs(), eng.Steps())
	}
}

// TestParallelSetupErrors pins the misuse panics: enabling parallel mode
// after scheduling, non-positive lookahead, and RunUntil on a parallel
// engine.
func TestParallelSetupErrors(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("late SetParallel", func() {
		eng := New()
		eng.After(1, func() {})
		eng.SetParallel(2, 1)
	})
	mustPanic("zero lookahead", func() { New().SetParallel(2, 0) })
	mustPanic("RunUntil", func() {
		eng := New()
		eng.SetParallel(2, 1)
		eng.RunUntil(10)
	})
}

// TestParallelEpochGlobalSchedulePanics pins the central misuse guard: a
// node-lane event that schedules a global event directly (instead of
// deferring through Lane.Global) must fail loudly, not silently diverge.
// A second active lane forces the true multi-lane epoch path — a
// single-active-lane window legally runs fused in serial context, where a
// direct global schedule is ordinary serial scheduling.
func TestParallelEpochGlobalSchedulePanics(t *testing.T) {
	eng := New()
	eng.SetParallel(1, 5)
	lane := eng.NodeLane(0)
	eng.NodeLane(1).At(0, func() {})
	lane.At(0, func() {
		defer func() {
			if recover() == nil {
				t.Error("global schedule from epoch context did not panic")
			}
		}()
		eng.After(10, func() {})
	})
	eng.Run()
}

// TestParallelLookaheadViolationPanics pins the conservative-window guard: a
// deferred closure scheduling a global event inside the already-executed
// window is a lookahead bug and must panic.
func TestParallelLookaheadViolationPanics(t *testing.T) {
	eng := New()
	eng.SetParallel(1, 10)
	lane := eng.NodeLane(0)
	// A second active lane forces the multi-lane epoch/walk path (a
	// single-active-lane window runs fused in serial context, where short
	// global delays are legal because nothing runs concurrently).
	eng.NodeLane(1).At(0, func() {})
	caught := false
	lane.At(0, func() {
		lane.Global(func() {
			defer func() {
				if recover() != nil {
					caught = true
				}
			}()
			// Window is [0, 10); scheduling a global at 1 claims a cross-node
			// effect inside an epoch that already ran.
			eng.After(1, func() {})
		})
	})
	// A second lane event widens the window past the violation point.
	lane.At(9, func() {})
	eng.Run()
	if !caught {
		t.Fatal("lookahead violation did not panic")
	}
}

// TestFanWorkCoversAllIndices pins the epoch executor's worker pool: every
// index runs exactly once, including the n <= 1 and worker-clamped shapes.
func TestFanWorkCoversAllIndices(t *testing.T) {
	for _, w := range []int{1, 3} {
		for _, n := range []int{0, 1, 2, 16, 100} {
			hits := make([]int32, n)
			fanWork(n, w, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", w, n, i, h)
				}
			}
		}
	}
}

// TestFanWorkPropagatesPanic pins failure delivery: a panic on any worker
// surfaces to the caller instead of being swallowed by the pool.
func TestFanWorkPropagatesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("worker panic did not propagate")
		}
	}()
	fanWork(8, 4, func(i int) {
		if i == 5 {
			panic("boom")
		}
	})
}

// TestParallelLaneNowAgrees verifies the two-clock story: a lane's Now
// matches the engine clock at consistent points and tracks the lane's own
// progress inside an epoch slice.
func TestParallelLaneNowAgrees(t *testing.T) {
	eng := New()
	eng.SetParallel(1, 100)
	lane := eng.NodeLane(0)
	var at5 units.Tick
	lane.At(5, func() { at5 = lane.Now() })
	eng.Run()
	if at5 != 5 {
		t.Fatalf("lane.Now inside event at t=5: got %v", at5)
	}
	if lane.Now() != eng.Now() {
		t.Fatalf("lane.Now (%v) != eng.Now (%v) after run", lane.Now(), eng.Now())
	}
}
