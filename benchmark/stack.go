package main

import (
	"fmt"
	"time"

	"phishare/internal/cluster"
	"phishare/internal/condor"
	"phishare/internal/core"
	"phishare/internal/experiments"
	"phishare/internal/job"
	"phishare/internal/metrics"
	"phishare/internal/rng"
	"phishare/internal/scheduler"
	"phishare/internal/sim"
	"phishare/internal/units"
	"phishare/internal/workload"
)

// outcome is everything a run reports that must not depend on how fast
// the host ran it: the fields of experiments.Result the benchmark compares
// across runs.
type outcome struct {
	JobCount  int
	Makespan  units.Tick
	Summary   metrics.Summary
	Stream    metrics.StreamStats
	PoolStats condor.Stats
	Parallel  bool
	Epochs    uint64
}

func outcomeOf(r experiments.Result) outcome {
	return outcome{
		JobCount:  r.JobCount,
		Makespan:  r.Makespan,
		Summary:   r.Summary,
		Stream:    r.Stream,
		PoolStats: r.PoolStats,
		Parallel:  r.Parallel,
		Epochs:    r.Epochs,
	}
}

// terminal checks that every job of a run reached a terminal state.
func terminal(o outcome) error {
	if s := o.Summary; s.Completed+s.Failed != o.JobCount {
		return fmt.Errorf("%d completed + %d failed != %d jobs", s.Completed, s.Failed, o.JobCount)
	}
	return nil
}

// check is the per-run correctness test: every job reached a terminal
// state, and the run matches the reference run of the same seed exactly.
// The heap probe is the one field allowed to differ, since only the
// reference run samples it.
func check(got, ref outcome) error {
	if err := terminal(got); err != nil {
		return err
	}
	got.Stream.PeakHeapBytes, ref.Stream.PeakHeapBytes = 0, 0
	if got != ref {
		return fmt.Errorf("outcome differs from the reference run:\n got %+v\nwant %+v", got, ref)
	}
	return nil
}

// stack is the simulation assembled from the layers' public constructors
// exactly as experiments.Run assembles it, ready for eng.Run. With a
// tracer attached, the calls into each layer are timed from here.
type stack struct {
	eng      *sim.Engine
	clu      *cluster.Cluster
	pool     *condor.Pool
	agg      metrics.Aggregate
	stream   bool
	jobCount int
	tr       *tracer
}

// assemble mirrors experiments.Run up to eng.Run for the configurations
// specs produce: a policy, a (possibly heterogeneous) cluster, default
// condor and core settings, batch or streamed submission. parallel mirrors
// the front door's engine choice, read from its Result. tr may be nil.
func assemble(cfg experiments.RunConfig, parallel bool, tr *tracer) *stack {
	eng := sim.New()
	eng.MaxSteps = 500_000_000
	if parallel {
		eng.SetParallel(cfg.Workers, cfg.Condor.Lookahead())
	}
	clu := cluster.New(eng, cluster.Config{
		Nodes:          cfg.Nodes,
		DevicesPerNode: cfg.DevicesPerNode,
		NodeDevices:    cfg.NodeDevices,
		UseCosmic:      cfg.Policy == experiments.PolicyMCC || cfg.Policy == experiments.PolicyMCCK,
		Seed:           cfg.Seed,
	})
	var pol condor.Policy
	r := rng.New(cfg.Seed).Fork("policy-" + cfg.Policy)
	switch cfg.Policy {
	case experiments.PolicyMC:
		pol = scheduler.NewExclusive()
	case experiments.PolicyMCC:
		pol = scheduler.NewRandomPack(r)
	case experiments.PolicyMCCK:
		pol = core.New(cfg.Core)
	default:
		panic(fmt.Sprintf("benchmark: unsupported policy %q", cfg.Policy))
	}
	if tr != nil {
		pol = tr.wrap(pol)
	}
	s := &stack{eng: eng, clu: clu, stream: cfg.Stream, tr: tr}
	s.pool = condor.NewPool(eng, clu, pol, cfg.Condor)
	if cfg.Stream {
		s.pool.SetRecordSink(s.sink)
	}
	if cfg.Source != nil {
		s.jobCount = cfg.Source.Len()
		s.startPump(cfg.Source)
	} else {
		s.jobCount = len(cfg.Jobs)
		s.pool.Submit(cfg.Jobs)
	}
	return s
}

// sink is the streaming record sink: fold into the aggregate, drop.
func (s *stack) sink(r metrics.JobRecord) {
	if s.tr == nil {
		s.agg.Add(r)
		return
	}
	t0 := hostNow()
	s.agg.Add(r)
	s.tr.sink += hostNow().Sub(t0)
}

// startPump is experiments' arrival pump: one self-rearming generator
// event submits every arrival due now and re-arms for the next one. Traced
// stacks time Source.Next as the workload layer and SubmitAs as condor.
func (s *stack) startPump(src workload.Source) {
	if s.tr != nil {
		src = &timedSource{Source: src, tr: s.tr}
	}
	next, ok := src.Next()
	if !ok {
		panic("benchmark: empty source")
	}
	var buf [1]*job.Job
	var pump func()
	pump = func() {
		now := s.eng.Now()
		for ok && next.At <= now {
			buf[0] = next.Job
			if s.tr == nil {
				s.pool.SubmitAs(next.Tenant, buf[:], 0)
			} else {
				t0 := hostNow()
				s.tr.prepareInSubmit = true
				s.pool.SubmitAs(next.Tenant, buf[:], 0)
				s.tr.prepareInSubmit = false
				s.tr.submit += hostNow().Sub(t0)
			}
			next, ok = src.Next()
		}
		if ok {
			s.eng.At(next.At, pump)
		}
	}
	s.eng.At(next.At, pump)
}

// run drives the assembled stack to completion and aggregates its records
// the way experiments.Run does, timing the engine and the record walk.
func (s *stack) run() (outcome, error) {
	t0 := hostNow()
	s.eng.Run()
	t1 := hostNow()
	if !s.pool.Done() {
		return outcome{}, fmt.Errorf("engine drained with %d of %d jobs terminal", s.pool.Terminal(), s.jobCount)
	}
	makespan := s.pool.Makespan()
	if !s.stream {
		for _, r := range s.pool.Records() {
			s.agg.Add(r)
		}
	}
	utils := s.clu.Utils()
	summary := s.agg.Summary(utils, makespan)
	summary.MaxConcurrency = s.pool.MaxConcurrency()
	stream := s.agg.Stats(utils, makespan)
	stream.Summary = summary
	stream.PeakPending = s.pool.PeakPending()
	stream.PeakInFlight = s.pool.PeakInFlight()
	if s.tr != nil {
		t2 := hostNow()
		s.tr.engine = t1.Sub(t0)
		s.tr.post = t2.Sub(t1)
		s.tr.records = s.agg.Jobs()
	}
	return outcome{
		JobCount:  s.jobCount,
		Makespan:  makespan,
		Summary:   summary,
		Stream:    stream,
		PoolStats: s.pool.Stats(),
		Parallel:  s.eng.Parallel(),
		Epochs:    s.eng.Epochs(),
	}, nil
}

// hostNow is the benchmark's only wall-clock read. It times the host's
// work from outside the program; nothing it returns reaches simulation
// state.
func hostNow() time.Time {
	//philint:ignore dettaint host timing of the benchmark itself, never simulation state
	return time.Now() //philint:ignore wallclock host timing of the benchmark itself, never simulation state
}
