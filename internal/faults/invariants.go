package faults

import (
	"fmt"
	"sort"
	"strings"

	"phishare/internal/cluster"
	"phishare/internal/condor"
	"phishare/internal/obs"
	"phishare/internal/sim"
	"phishare/internal/units"
)

// maxViolations caps how many violations one run records; a single broken
// invariant tends to fail on every subsequent event, and the first few
// messages carry all the diagnostic value.
const maxViolations = 20

// Checker audits the stack's conservation laws. Install its Check method as
// the engine's AfterStep hook so it runs at every event boundary, register
// it on the run's trace (it is an obs.EventSink) and chain NoteTerminal into
// the pool's OnTerminal hook, then call Finish once the engine drains for
// the terminal checks. Harness.Wire does all three.
//
// The checker holds one ledger entry per active job — opened by the job's
// submit event, checked and dropped when OnTerminal retires the job — so its
// resident state is O(active jobs) and it audits streaming pools, whose
// terminal jobs are gone by design, exactly as it audits retained ones. It
// only reads component state (plus the lazy dead-process purge inside
// cosmic.DeclaredFree, which is outcome-neutral by construction), so a
// checked run's outcomes are bit-identical to an unchecked one.
type Checker struct {
	eng  *sim.Engine
	clu  *cluster.Cluster
	pool *condor.Pool

	violations []string

	// memGuarded records whether the policy's machine-side Requirements
	// reference PhiFreeMemory. Only a memory-guarded negotiator (MC, MCCK)
	// promises FreeMem never goes negative; MCC's cluster layer is
	// deliberately memory-oblivious — its FreeMem is an unguarded ledger and
	// the memory law is enforced by COSMIC at the node (checkDevices).
	memGuarded bool

	// jobs is the live ledger, keyed by job ID: every submitted job that
	// OnTerminal has not yet retired. peak is its high-water mark.
	jobs map[int]*ledger
	peak int
	// usage is per-user device time summed from the execution intervals
	// the event stream shows (Execute → Crash/Terminate).
	usage map[string]units.Tick
	// pending is checkPool's duplicate-detection scratch, reused per event.
	pending map[int]bool
}

// ledger is one active job's view of its own event stream.
type ledger struct {
	user     string
	lastExec units.Tick

	submits, matches, executes, terminates, crashes, aborts int
}

// NewChecker builds a checker over an assembled stack, retaining or
// streaming alike.
func NewChecker(eng *sim.Engine, clu *cluster.Cluster, pool *condor.Pool) *Checker {
	return &Checker{
		eng: eng, clu: clu, pool: pool,
		memGuarded: strings.Contains(pool.Policy().MachineRequirements(), condor.AttrPhiFreeMemory),
		jobs:       map[int]*ledger{},
		usage:      map[string]units.Tick{},
		pending:    map[int]bool{},
	}
}

// Violations returns the recorded violations, capped at maxViolations.
func (c *Checker) Violations() []string { return c.violations }

func (c *Checker) fail(format string, args ...any) {
	if len(c.violations) < maxViolations {
		msg := fmt.Sprintf(format, args...)
		c.violations = append(c.violations, fmt.Sprintf("t=%v: %s", c.eng.Now(), msg))
	}
}

// Consume implements obs.EventSink: it tallies the condor layer's job
// lifecycle events into the ledger. A submit opens a job's entry; any other
// lifecycle event for a job with no open entry — one already retired, or
// never submitted — is a violation.
func (c *Checker) Consume(e obs.Event) {
	ev, ok := condor.LifecycleOf(e)
	if !ok {
		return
	}
	l := c.jobs[ev.JobID]
	if ev.Kind == condor.EventSubmit {
		if l == nil {
			l = &ledger{user: ev.User}
			c.jobs[ev.JobID] = l
			c.usage[ev.User] += 0 // every submitting user is reconciled at Finish
			if len(c.jobs) > c.peak {
				c.peak = len(c.jobs)
			}
		}
		l.submits++
		return
	}
	if l == nil {
		c.fail("job %d: %v event with no live job (retired, or never submitted)", ev.JobID, ev.Kind)
		return
	}
	switch ev.Kind {
	case condor.EventMatch:
		l.matches++
	case condor.EventExecute:
		l.executes++
		l.lastExec = ev.At
	case condor.EventCrash:
		l.crashes++
		c.usage[l.user] += ev.At - l.lastExec
	case condor.EventTerminate:
		l.terminates++
		c.usage[l.user] += ev.At - l.lastExec
	case condor.EventStallAbort:
		l.aborts++
	}
}

// NoteTerminal is the OnTerminal hook: it checks the retiring job's
// lifecycle laws against its ledger and drops the entry. Every execution
// ends in exactly one crash or terminate, and the job's own counters agree
// with the events it produced.
func (c *Checker) NoteTerminal(q *condor.QueuedJob) {
	id := q.Job.ID
	l := c.jobs[id]
	if l == nil {
		c.fail("job %d: OnTerminal fired with no live job (a second delivery, or no submit event)", id)
		return
	}
	delete(c.jobs, id)
	if q.State != condor.Completed && q.State != condor.Failed {
		c.fail("job %d: OnTerminal in non-terminal state %v", id, q.State)
	}
	if l.submits != 1 {
		c.fail("job %d: %d submit events, want 1", id, l.submits)
	}
	if l.matches != l.executes {
		c.fail("job %d: %d matches but %d executions", id, l.matches, l.executes)
	}
	if l.terminates > 1 {
		c.fail("job %d: terminated %d times", id, l.terminates)
	}
	if l.aborts > 1 {
		c.fail("job %d: stall-aborted %d times", id, l.aborts)
	}
	if l.executes != l.crashes+l.terminates {
		c.fail("job %d: %d executions but %d crashes + %d terminations (run lost or duplicated)",
			id, l.executes, l.crashes, l.terminates)
	}
	if l.crashes != q.Crashes {
		c.fail("job %d: %d crash events but Crashes=%d", id, l.crashes, q.Crashes)
	}
	if q.State == condor.Completed && l.terminates != 1 {
		c.fail("job %d: completed with %d terminate events", id, l.terminates)
	}
}

// Check runs the per-event structural invariants. It is the engine
// AfterStep hook: cheap enough to run after every event (a few short loops
// over machines, pending jobs and resident processes).
func (c *Checker) Check() {
	c.checkMachines()
	c.checkPool()
	c.checkDevices()
}

// checkMachines verifies each machine's claim bookkeeping against the
// resident set it implies, and the pool's offline counter against a full
// scan (finishCycle trusts the counter; SetOffline is its only writer, so
// drift here means a bypass wrote Machine.Offline directly).
func (c *Checker) checkMachines() {
	offline := 0
	for _, m := range c.pool.Machines() {
		if m.Offline {
			offline++
		}
	}
	if got := c.pool.OfflineMachines(); got != offline {
		c.fail("pool: offline counter %d != %d machines marked offline", got, offline)
	}
	for _, m := range c.pool.Machines() {
		if c.memGuarded && m.FreeMem < 0 {
			var ids []int
			for _, q := range m.Resident {
				ids = append(ids, q.Job.ID)
			}
			c.fail("machine %s: FreeMem negative (%v) under a memory-guarded negotiator, residents %v",
				m.Name, m.FreeMem, ids)
		}
		if m.ResidentThreads < 0 {
			c.fail("machine %s: ResidentThreads negative (%v)", m.Name, m.ResidentThreads)
		}
		if len(m.Resident) > m.HostSlots {
			c.fail("machine %s: %d resident jobs exceed %d host slots",
				m.Name, len(m.Resident), m.HostSlots)
		}
		var mem units.MB
		var thr units.Threads
		for _, q := range m.Resident {
			mem += q.Job.Mem
			thr += q.Job.Threads
			if q.State != condor.Dispatched {
				c.fail("machine %s: resident job %d in state %v", m.Name, q.Job.ID, q.State)
			}
		}
		total := m.Unit.Device.Config().Memory
		if m.FreeMem != total-mem {
			c.fail("machine %s: FreeMem %v != memory %v - resident declared %v",
				m.Name, m.FreeMem, total, mem)
		}
		if m.ResidentThreads != thr {
			c.fail("machine %s: ResidentThreads %v != resident declared %v",
				m.Name, m.ResidentThreads, thr)
		}
	}
}

// checkPool verifies job-state conservation from the pool's counters: every
// submitted, not yet terminal job is either pending or in flight, every
// in-flight job is resident on exactly one machine, the pending queue holds
// only Idle jobs with no duplicates, and the checker's ledger holds exactly
// the active jobs.
func (c *Checker) checkPool() {
	p := c.pool
	pending := p.Pending()
	active := p.Submitted() - p.Terminal()
	if active != len(pending)+p.InFlight() {
		c.fail("pool: %d submitted - %d terminal != %d pending + %d in flight",
			p.Submitted(), p.Terminal(), len(pending), p.InFlight())
	}
	resident := 0
	for _, m := range p.Machines() {
		resident += len(m.Resident)
	}
	if p.InFlight() != resident {
		c.fail("pool: inFlight %d != %d jobs resident on machines", p.InFlight(), resident)
	}
	if len(c.jobs) != active {
		c.fail("checker: ledger holds %d jobs, pool has %d active", len(c.jobs), active)
	}
	clear(c.pending)
	for _, q := range pending {
		if q.State != condor.Idle {
			c.fail("pool: pending job %d in state %v", q.Job.ID, q.State)
		}
		if c.pending[q.Job.ID] {
			c.fail("pool: job %d queued twice", q.Job.ID)
		}
		c.pending[q.Job.ID] = true
	}
}

// checkDevices verifies device- and COSMIC-level resource sanity.
func (c *Checker) checkDevices() {
	for _, u := range c.clu.Units {
		cfg := u.Device.Config()
		if cm := u.Device.CommittedMemory(); cm > cfg.Memory {
			c.fail("device %s: committed %v exceeds device memory %v (OOM killer slept)",
				u.SlotName, cm, cfg.Memory)
		}
		if u.Cosmic == nil {
			continue // raw MPSS oversubscribes threads by design
		}
		if rt := u.Device.RunningThreads(); rt > cfg.HWThreads() {
			c.fail("device %s: running threads %v exceed hardware threads %v under COSMIC",
				u.SlotName, rt, cfg.HWThreads())
		}
		if free := u.Cosmic.DeclaredFree(); free < 0 {
			c.fail("device %s: COSMIC declared-free memory negative (%v)", u.SlotName, free)
		}
	}
}

// Finish runs the terminal checks after the engine drains and returns every
// recorded violation: no job left without its OnTerminal, nothing
// resident, and per-user usage equal to the summed execution intervals.
func (c *Checker) Finish() []string {
	open := make([]int, 0, len(c.jobs))
	for id := range c.jobs {
		open = append(open, id)
	}
	sort.Ints(open)
	for _, id := range open {
		c.fail("job %d never reached a terminal state (no OnTerminal after %d executions)", id, c.jobs[id].executes)
	}
	for _, m := range c.pool.Machines() {
		if len(m.Resident) != 0 {
			c.fail("machine %s: %d jobs still resident after drain", m.Name, len(m.Resident))
		}
	}
	if n := c.pool.InFlight(); n != 0 {
		c.fail("pool: inFlight %d after drain", n)
	}
	c.checkUsage()
	return c.violations
}

// checkUsage compares the pool's fair-share accumulator with per-user
// device time summed from the event stream — every job's Execute →
// Crash/Terminate intervals. This is the invariant the crash/resubmit
// double-count bug broke: accruing from the job's *first* start charged
// earlier runs (and idle re-queue gaps) again on each crash.
func (c *Checker) checkUsage() {
	// Check users in sorted order: violations land in c.violations, so a
	// map-order iteration here would make the recorded (and capped) report
	// nondeterministic whenever more than one user mismatches — the
	// philint:mapiter hazard, caught by the analyzer on this very loop.
	names := make([]string, 0, len(c.usage))
	for u := range c.usage {
		names = append(names, u)
	}
	sort.Strings(names)
	for _, u := range names {
		if got := c.pool.Usage(u); got != c.usage[u] {
			c.fail("user %q: fair-share usage %v != %v summed from execution intervals",
				u, got, c.usage[u])
		}
	}
}
