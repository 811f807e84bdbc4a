package sim

// Parallel deterministic execution.
//
// The scheduler's structure guarantees that between cross-node (global)
// events, a node's events touch only that node's state. The parallel
// executor exploits this with a conservative epoch loop:
//
//   - Events live in per-node lane heaps plus one global heap. Lane heaps
//     are keyed by (time, lane push order), the global heap by (time,
//     canonical sequence); within any one heap both keys induce the order a
//     serial engine would pop, because pushes into a lane happen in
//     canonical order (lane execution order equals canonical order within a
//     lane, and barrier-context pushes follow every epoch push that
//     canonically precedes them).
//
//   - Each iteration either executes the next global event serially (a
//     barrier: no lane event precedes it in canonical order), or runs an
//     epoch window: every lane concurrently drains its events with time in
//     [t_min, W), where W = min(next global event's time, t_min +
//     lookahead). The lookahead is the minimum delay by which node-side
//     activity can cause a global event (the Condor notify/dispatch
//     latencies), so no global event can materialize inside a window that
//     is already running. A lane event at exactly the next global event's
//     time runs in the window only if its canonical sequence is already
//     known to precede the global event's; an epoch-born event at that time
//     never does — its serial sequence necessarily follows (sequence
//     numbers grow monotonically, and the global event was scheduled
//     first).
//
//   - During a window, each executed event records an action log: the lane
//     events it scheduled and the closures it deferred with Lane.Global.
//     After the window, the canonical walk merges the per-lane execution
//     logs in (time, canonical sequence) order — every log head's sequence
//     is known by the time it surfaces, because its parent (same lane,
//     earlier in the log) was walked first — and replays each log in
//     emission order: scheduled children receive the exact sequence number
//     the serial engine would have drawn, and deferred closures run with
//     the clock at their event's time. Record streams, sequence numbers and
//     the engine clock therefore evolve exactly as in a serial run, which
//     is what makes parallel outcomes bit-identical.
//
// Everything here is driven from Run; workers only ever touch their own
// lane's heap, clock and free lists, so the epoch fork/join is the only
// synchronization.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"phishare/internal/units"
)

// SetParallel switches the engine to parallel lane execution with the given
// worker count (<= 0 selects GOMAXPROCS) and conservative lookahead: the
// smallest delay by which a node-lane event may cause a global event
// (for the Condor stack, min(NotifyDelay, DispatchLatency)). It must be
// called before any event is scheduled. Outcomes are bit-identical to
// serial execution; only wall-clock time changes.
func (e *Engine) SetParallel(workers int, lookahead units.Tick) {
	if e.seq != 0 || e.steps != 0 {
		panic("sim: SetParallel must be called before any event is scheduled")
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: parallel execution needs a positive lookahead, got %v", lookahead))
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e.parallel = true
	e.workers = workers
	e.lookahead = lookahead
}

// Parallel reports whether the engine runs lanes in parallel.
func (e *Engine) Parallel() bool { return e.parallel }

// Workers returns the parallel worker count (0 in serial mode).
func (e *Engine) Workers() int { return e.workers }

// Epochs reports how many parallel epoch windows have executed. Serial
// engines report 0; a parallel run's ratio of Steps to Epochs is the mean
// window width, the quantity the lookahead fight is about.
func (e *Engine) Epochs() uint64 { return e.epochs }

// runParallel is Run for a parallel engine.
func (e *Engine) runParallel() units.Tick {
	for {
		var g *event
		if len(e.events) > 0 {
			g = e.events[0]
		}
		var tmin units.Tick
		haveLane, laneFirst := false, false
		for _, l := range e.lanes {
			if len(l.heap) == 0 {
				continue
			}
			h := l.heap[0]
			if !haveLane || h.at < tmin {
				tmin = h.at
			}
			haveLane = true
			if g != nil && (h.at < g.at || (h.at == g.at && h.seq != 0 && h.seq < g.seq)) {
				laneFirst = true
			}
		}
		switch {
		case !haveLane && g == nil:
			return e.now
		case g != nil && !laneFirst:
			// The global event precedes every lane event: execute it
			// serially. This is the barrier — negotiation, dispatch, fault
			// injection and admission all run here, alone, with the merged
			// state of every lane visible.
			e.step()
		default:
			w := tmin + e.lookahead
			bounded := false
			var gseq uint64
			if g != nil && g.at <= w {
				w, bounded, gseq = g.at, true, g.seq
			}
			e.runEpoch(w, bounded, gseq)
		}
	}
}

// runEpoch executes one window of lane events on the worker pool, then
// performs the canonical walk and runs the AfterStep hook at the resulting
// consistent point.
func (e *Engine) runEpoch(w units.Tick, bounded bool, gseq uint64) {
	active := e.laneScratch[:0]
	for _, l := range e.lanes {
		if l.runnable(w, bounded, gseq) {
			active = append(active, l)
		}
	}
	e.laneScratch = active[:0] // retain capacity for the next epoch

	e.epochs++
	if len(active) == 1 {
		// Single-lane window: canonical order restricted to one lane is the
		// lane's own order, so the window can run serially in barrier
		// context — sequence numbers assigned at scheduling time, Global
		// closures immediate, no log, no walk. This is the common window
		// shape whenever activity clusters on one node, and it makes the
		// parallel engine's single-active-lane throughput match the serial
		// engine's.
		active[0].runFused(w, bounded, gseq)
		if e.AfterStep != nil {
			e.AfterStep()
		}
		return
	}
	e.ctx = ctxEpoch
	n := e.workers
	if n > len(active) {
		n = len(active)
	}
	if n <= 1 {
		for _, l := range active {
			l.runSlice(w, bounded, gseq)
		}
	} else {
		fanWork(len(active), n, func(k int) {
			active[k].runSlice(w, bounded, gseq)
		})
	}
	e.ctx = ctxSerial

	e.walk(active, w)
	if e.AfterStep != nil {
		e.AfterStep()
	}
}

// fanWork distributes indices [0, n) over w worker goroutines with an
// atomic work-stealing counter, waits for all of them, and re-raises the
// first panic any worker hit. It is the epoch executor's one goroutine-spawn
// site.
func fanWork(n, w int, fn func(int)) {
	var (
		next int64
		wg   sync.WaitGroup
		mu   sync.Mutex
		rec  any
	)
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					if rec == nil {
						rec = r
					}
					mu.Unlock()
				}
			}()
			for {
				k := atomic.AddInt64(&next, 1) - 1
				if k >= int64(n) {
					return
				}
				fn(int(k))
			}
		}()
	}
	wg.Wait()
	if rec != nil {
		panic(rec)
	}
}

// runnable reports whether the lane's next event falls inside the window.
func (l *Lane) runnable(w units.Tick, bounded bool, gseq uint64) bool {
	if len(l.heap) == 0 {
		return false
	}
	h := l.heap[0]
	return h.at < w || (bounded && h.at == w && h.seq != 0 && h.seq < gseq)
}

// runSlice drains the lane's window on the calling worker goroutine.
func (l *Lane) runSlice(w units.Tick, bounded bool, gseq uint64) {
	l.running = true
	for len(l.heap) > 0 {
		h := l.heap[0]
		if !(h.at < w || (bounded && h.at == w && h.seq != 0 && h.seq < gseq)) {
			break
		}
		ev := l.heap.pop()
		if ev.at < l.now {
			panic("sim: lane heap corrupted: time went backwards")
		}
		l.now = ev.at
		l.cur = ev
		if tm := ev.tm; tm != nil {
			tm.ev = nil
			if !tm.stopped {
				ev.fn()
			}
			ev.tm = nil
			l.tmFree = append(l.tmFree, tm)
		} else {
			ev.fn()
		}
		ev.fn = nil
		l.cur = nil
		l.log = append(l.log, ev)
	}
	l.running = false
}

// runFused drains a single-active-lane window in barrier (serial) context on
// the coordinator: pops come off the lane's heap, but scheduling and clock
// semantics are exactly the serial engine's, so children draw their real
// sequence numbers immediately and deferred closures never exist. New global
// events land at or past the window's end (the lookahead argument), so the
// window predicate needs no re-evaluation against them.
func (l *Lane) runFused(w units.Tick, bounded bool, gseq uint64) {
	e := l.eng
	for len(l.heap) > 0 {
		h := l.heap[0]
		if !(h.at < w || (bounded && h.at == w && h.seq != 0 && h.seq < gseq)) {
			break
		}
		ev := l.heap.pop()
		if ev.at < e.now {
			panic("sim: lane heap corrupted: time went backwards")
		}
		e.now, l.now = ev.at, ev.at
		e.steps++
		if e.MaxSteps != 0 && e.steps > e.MaxSteps {
			panic(fmt.Sprintf("sim: exceeded MaxSteps=%d at t=%v (runaway event loop?)", e.MaxSteps, e.now))
		}
		if tm := ev.tm; tm != nil {
			tm.ev = nil
			if !tm.stopped {
				ev.fn()
			}
			ev.tm = nil
			l.tmFree = append(l.tmFree, tm)
		} else {
			ev.fn()
		}
		ev.fn = nil
		ev.lane = nil
		l.free = append(l.free, ev)
	}
}

// laneLess orders two lanes by their current log heads' canonical keys.
func laneLess(a, b *Lane) bool {
	x, y := a.log[a.logPos], b.log[b.logPos]
	if x.at != y.at {
		return x.at < y.at
	}
	return x.seq < y.seq
}

// walk merges the window's per-lane execution logs in canonical order,
// assigning every epoch-born event the exact sequence number a serial
// engine would have drawn and replaying deferred global closures at their
// serial positions. Window w bounds where replayed closures may schedule
// global events (the lookahead guarantee, enforced in Lane.schedule).
func (e *Engine) walk(active []*Lane, w units.Tick) {
	e.ctx = ctxWalk
	e.walkBound = w

	// Small min-heap of lanes keyed by log head.
	h := e.mergeScratch[:0]
	for _, l := range active {
		if l.logPos >= len(l.log) {
			continue
		}
		h = append(h, l)
		for j := len(h) - 1; j > 0; {
			p := (j - 1) / 2
			if !laneLess(h[j], h[p]) {
				break
			}
			h[j], h[p] = h[p], h[j]
			j = p
		}
	}
	siftDown := func() {
		n := len(h)
		j := 0
		for {
			l, r := 2*j+1, 2*j+2
			smallest := j
			if l < n && laneLess(h[l], h[smallest]) {
				smallest = l
			}
			if r < n && laneLess(h[r], h[smallest]) {
				smallest = r
			}
			if smallest == j {
				break
			}
			h[j], h[smallest] = h[smallest], h[j]
			j = smallest
		}
	}

	for len(h) > 0 {
		l := h[0]
		ev := l.log[l.logPos]
		if ev.seq == 0 {
			panic("sim: canonical walk reached an event with no assigned sequence")
		}
		if ev.at < e.now {
			panic("sim: canonical walk went backwards in time")
		}
		e.now = ev.at
		e.steps++
		l.logPos++
		for i := range ev.acts {
			a := &ev.acts[i]
			switch {
			case a.child != nil:
				// The serial engine would have drawn the next sequence
				// number right here.
				e.seq++
				a.child.seq = e.seq
				a.child = nil
			case a.flush:
				// A lane-local collector buffered one record during the
				// epoch; hand it to the canonical consumer at this event's
				// serial position (DeferFlush guarantees the hook is set).
				a.flush = false
				e.laneFlush(l)
			default:
				fn := a.global
				a.global = nil
				fn()
			}
		}
		ev.acts = ev.acts[:0]
		ev.lane = nil
		l.free = append(l.free, ev)
		if l.logPos >= len(l.log) {
			// Lane exhausted: remove it from the merge heap.
			n := len(h) - 1
			h[0] = h[n]
			h[n] = nil
			h = h[:n]
		}
		siftDown()
	}
	for _, l := range active {
		l.log = l.log[:0]
		l.logPos = 0
	}
	e.mergeScratch = h[:0]

	e.walkBound = 0
	e.ctx = ctxSerial
	if e.MaxSteps != 0 && e.steps > e.MaxSteps {
		panic(fmt.Sprintf("sim: exceeded MaxSteps=%d at t=%v (runaway event loop?)", e.MaxSteps, e.now))
	}
}
