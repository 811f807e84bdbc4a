package main

import (
	"time"

	"phishare/internal/condor"
	"phishare/internal/experiments"
	"phishare/internal/units"
	"phishare/internal/workload"
)

// tracer accumulates the host time and the counts of one traced run,
// measured at the calls the benchmark makes into each layer. Every call it
// wraps runs in the engine's global context (negotiation cycles, the
// arrival pump, the record sink), which the parallel engine executes on the
// goroutine that called Run. Node lanes never reach it, so plain fields
// need no synchronization.
type tracer struct {
	// core is set when the wrapped policy is the MCCK planner, whose hooks
	// are the core layer; otherwise they are the scheduler layer.
	core bool

	nextCalls int
	next      time.Duration // Source.Next

	submit          time.Duration // SubmitAs from the pump, PrepareJobAd included
	prepare         time.Duration // PrepareJobAd, which condor calls outside cycles
	prepareInSubmit bool          // set while the pump is inside SubmitAs
	prepareSubmit   time.Duration // the part of prepare inside submit

	cycleStart     time.Time
	cycles         []time.Duration // PreNegotiation call to PostNegotiation return
	hooksInCycle   time.Duration   // PreNegotiation + Select + PostNegotiation
	pendingScanned int

	plans   []time.Duration // PreNegotiation
	planned int             // Σ PlannedCount, MCCK only

	selectCalls int
	selects     time.Duration
	candidates  int

	sink    time.Duration // streaming record sink
	post    time.Duration // post-run record walk and aggregation
	records int

	engine time.Duration // eng.Run
}

// planner is the part of core.Scheduler the tracer reads after each plan.
type planner interface{ PlannedCount() int }

func (t *tracer) wrap(p condor.Policy) condor.Policy {
	t.core = p.Name() == experiments.PolicyMCCK
	w := &tracedPolicy{inner: p, tr: t}
	if ext, ok := p.(condor.ExternalPolicy); ok {
		return &tracedExternalPolicy{tracedPolicy: w, ext: ext}
	}
	return w
}

// tracedPolicy forwards all six condor.Policy hooks to the wrapped policy,
// timing the ones condor calls during a run.
type tracedPolicy struct {
	inner condor.Policy
	tr    *tracer
}

func (w *tracedPolicy) Name() string                { return w.inner.Name() }
func (w *tracedPolicy) MachineRequirements() string { return w.inner.MachineRequirements() }

func (w *tracedPolicy) PrepareJobAd(q *condor.QueuedJob) {
	t0 := hostNow()
	w.inner.PrepareJobAd(q)
	d := hostNow().Sub(t0)
	w.tr.prepare += d
	if w.tr.prepareInSubmit {
		w.tr.prepareSubmit += d
	}
}

func (w *tracedPolicy) PreNegotiation(p *condor.Pool) {
	t0 := hostNow()
	w.tr.cycleStart = t0
	w.tr.pendingScanned += len(p.Pending())
	w.inner.PreNegotiation(p)
	d := hostNow().Sub(t0)
	w.tr.plans = append(w.tr.plans, d)
	w.tr.hooksInCycle += d
	if pl, ok := w.inner.(planner); ok {
		w.tr.planned += pl.PlannedCount()
	}
}

// Select returns the wrapped policy's verdict unchanged; the counters and
// host time it records are read only by the benchmark.
//
//philint:ignore pureselect counts calls and host time for the benchmark; the verdict is the wrapped policy's
func (w *tracedPolicy) Select(p *condor.Pool, q *condor.QueuedJob, candidates []*condor.Machine) int {
	t0 := hostNow()
	idx := w.inner.Select(p, q, candidates)
	d := hostNow().Sub(t0)
	w.tr.selects += d
	w.tr.hooksInCycle += d
	w.tr.selectCalls++
	w.tr.candidates += len(candidates)
	return idx
}

func (w *tracedPolicy) PostNegotiation(p *condor.Pool) {
	t0 := hostNow()
	w.inner.PostNegotiation(p)
	t1 := hostNow()
	w.tr.hooksInCycle += t1.Sub(t0)
	w.tr.cycles = append(w.tr.cycles, t1.Sub(w.tr.cycleStart))
}

// tracedExternalPolicy also forwards condor.ExternalPolicy, so an add-on
// policy keeps its reaction delay (MCCK's 1 s) under tracing.
type tracedExternalPolicy struct {
	*tracedPolicy
	ext condor.ExternalPolicy
}

func (w *tracedExternalPolicy) ExtraDelay() units.Tick { return w.ext.ExtraDelay() }

// timedSource times the workload layer's arrival generator.
type timedSource struct {
	workload.Source
	tr *tracer
}

func (s *timedSource) Next() (workload.Arrival, bool) {
	t0 := hostNow()
	a, ok := s.Source.Next()
	s.tr.next += hostNow().Sub(t0)
	s.tr.nextCalls++
	return a, ok
}

// layers splits a traced run's host time, eng.Run plus the post-run record
// walk, into the layers timed from outside. other is what no wrapper
// covers: the engine itself, the node side (runner, cosmic, phi), and the
// negotiation work outside the PreNegotiation..PostNegotiation bracket.
type layers struct {
	workload, condor, scan, scheduler, core, metrics, other, total time.Duration
}

func (t *tracer) layers() layers {
	var cycles time.Duration
	for _, d := range t.cycles {
		cycles += d
	}
	var l layers
	l.workload = t.next
	l.scan = cycles - t.hooksInCycle
	l.condor = l.scan + t.submit - t.prepareSubmit
	hooks := t.hooksInCycle + t.prepare
	if t.core {
		l.core = hooks
	} else {
		l.scheduler = hooks
	}
	l.metrics = t.sink + t.post
	l.total = t.engine + t.post
	// Everything timed inside eng.Run: cycles (hooks included), pump
	// submissions and arrivals, sink calls, and stray PrepareJobAd calls
	// (crash resubmits).
	inRun := t.next + cycles + t.submit + (t.prepare - t.prepareSubmit) + t.sink
	l.other = t.engine - inRun
	return l
}
