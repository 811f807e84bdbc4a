package faults

import (
	"phishare/internal/cluster"
	"phishare/internal/condor"
	"phishare/internal/obs"
	"phishare/internal/sim"
)

// Harness bundles the fault layer's wiring for one run: an optional
// Injector (Profile) and an optional invariant Checker (Check). The zero
// Harness wires nothing; experiments.RunConfig.Chaos carries one into a run.
type Harness struct {
	// Profile selects the injected faults; the zero profile injects none.
	Profile Profile
	// Seed drives the injector's random draws. Keep it equal to the run
	// seed so a failing (seed, profile, policy) triple is self-contained.
	Seed int64
	// Check installs the invariant checker on the engine's AfterStep hook.
	Check bool
	// Obs, if non-nil, is the run's observer, already attached to the
	// pool: it receives fault trace events (layer "faults"), and the
	// checker reads the pool's lifecycle events from its trace.
	// experiments.Run copies its RunConfig.Obs here.
	Obs *obs.Observer

	inj *Injector
	chk *Checker
}

// Wire installs the harness on a freshly assembled stack, before job
// submission. With Check set it attaches the checker to eng.AfterStep,
// registers it on the run's trace and chains the pool's OnTerminal for the
// per-job lifecycle checks; a run without an observer gets one in streaming
// mode, attached to the pool alone, so nothing is retained. With an enabled
// Profile it builds and starts the Injector. All of the checker's additions
// are outcome-neutral; only the injected faults themselves perturb the run.
func (h *Harness) Wire(eng *sim.Engine, clu *cluster.Cluster, pool *condor.Pool) {
	if h.Check {
		h.chk = NewChecker(eng, clu, pool)
		if h.Obs != nil {
			h.Obs.Trace.AddConsumer(h.chk)
		} else {
			pool.SetObserver(obs.Streaming(h.chk))
		}
		eng.AfterStep = h.chk.Check
		prev := pool.OnTerminal
		pool.OnTerminal = func(q *condor.QueuedJob) {
			h.chk.NoteTerminal(q)
			if prev != nil {
				prev(q)
			}
		}
	}
	if h.Profile.Enabled() {
		h.inj = NewInjector(eng, clu, pool, h.Profile, h.Seed, h.Obs)
		h.inj.Start()
	}
}

// Finish runs the terminal invariant checks and returns every recorded
// violation (nil when clean, or when the harness ran without Check).
func (h *Harness) Finish() []string {
	if h.chk == nil {
		return nil
	}
	return h.chk.Finish()
}

// Violations returns what the checker has recorded so far.
func (h *Harness) Violations() []string {
	if h.chk == nil {
		return nil
	}
	return h.chk.Violations()
}

// PeakLedger is the most jobs the checker held at once (zero without Check).
func (h *Harness) PeakLedger() int {
	if h.chk == nil {
		return 0
	}
	return h.chk.peak
}

// InjectorStats returns the injection counters (zero without a profile).
func (h *Harness) InjectorStats() Stats {
	if h.inj == nil {
		return Stats{}
	}
	return h.inj.Stats()
}
