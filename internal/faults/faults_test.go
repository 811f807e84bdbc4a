package faults

import (
	"strings"
	"testing"

	"phishare/internal/cluster"
	"phishare/internal/condor"
	"phishare/internal/core"
	"phishare/internal/job"
	"phishare/internal/obs"
	"phishare/internal/rng"
	"phishare/internal/scheduler"
	"phishare/internal/sim"
	"phishare/internal/units"
)

// mkJob builds an honest job: one host second, then one long offload.
func mkJob(id int, mem units.MB, threads units.Threads, offload units.Tick) *job.Job {
	return &job.Job{
		ID: id, Name: "j", Workload: "test",
		Mem: mem, Threads: threads, ActualPeakMem: units.MB(float64(mem) * 0.9),
		Phases: []job.Phase{
			{Kind: job.HostPhase, Duration: 1 * units.Second},
			{Kind: job.OffloadPhase, Duration: offload, Threads: threads},
		},
	}
}

type rig struct {
	eng  *sim.Engine
	clu  *cluster.Cluster
	pool *condor.Pool
}

func newRig(nodes, retries int) *rig {
	eng := sim.New()
	eng.MaxSteps = 10_000_000
	clu := cluster.New(eng, cluster.Config{Nodes: nodes, UseCosmic: true, Seed: 1})
	pool := condor.NewPool(eng, clu, scheduler.NewRandomPack(rng.New(5)),
		condor.Config{MaxRetries: retries})
	return &rig{eng: eng, clu: clu, pool: pool}
}

// TestScriptedDeviceFailureLifecycle injects an exactly-timed device failure
// under a running job and asserts the complete crash/resubmit event
// sequence: Submit → Match → Execute → Crash → Resubmit (repeated while the
// device is down) → Match → Execute → Terminate, with the invariant checker
// clean throughout.
func TestScriptedDeviceFailureLifecycle(t *testing.T) {
	r := newRig(1, 5)
	h := &Harness{
		Profile: Profile{
			Name: "scripted",
			Script: []DeviceFault{
				{Slot: "slot1@node0", At: 5 * units.Second, Repair: 10 * units.Second},
			},
		},
		Seed:  1,
		Check: true,
	}
	// The checker shares the run's trace with a user log.
	log := condor.NewEventLog()
	h.Obs = obs.Streaming(log)
	r.pool.SetObserver(h.Obs)
	h.Wire(r.eng, r.clu, r.pool, 1)
	r.pool.Submit([]*job.Job{mkJob(0, 500, 60, 20*units.Second)})
	r.eng.Run()

	if !r.pool.Done() {
		t.Fatal("pool not done after engine drained")
	}
	if v := h.Finish(); len(v) != 0 {
		t.Fatalf("invariant violations under scripted failure:\n%v", v)
	}
	q := r.pool.Jobs()[0]
	if q.State != condor.Completed {
		t.Fatalf("job state %v, want completed after device repair", q.State)
	}
	if q.Crashes == 0 {
		t.Fatal("job never crashed: the scripted failure missed it")
	}
	if s := h.InjectorStats(); s.DeviceFailures != 1 || s.Repairs != 1 || s.Evictions != 1 {
		t.Errorf("injector stats %+v, want 1 failure, 1 repair, 1 eviction", s)
	}

	// The full lifecycle: the first run is cut down by the failure, every
	// retry while the device is down dies on arrival, the run after the
	// repair completes.
	var kinds []condor.EventKind
	for _, e := range log.JobHistory(0) {
		kinds = append(kinds, e.Kind)
	}
	want := []condor.EventKind{condor.EventSubmit}
	for i := 0; i < q.Crashes; i++ {
		want = append(want, condor.EventMatch, condor.EventExecute,
			condor.EventCrash, condor.EventResubmit)
	}
	want = append(want, condor.EventMatch, condor.EventExecute, condor.EventTerminate)
	if len(kinds) != len(want) {
		t.Fatalf("event sequence %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event %d = %v, want %v (full: %v)", i, kinds[i], want[i], kinds)
		}
	}
	// The first crash lands exactly at the scripted failure time.
	for _, e := range log.JobHistory(0) {
		if e.Kind == condor.EventCrash {
			if e.At != 5*units.Second {
				t.Errorf("first crash at %v, want %v", e.At, 5*units.Second)
			}
			break
		}
	}
}

// TestMTBFInjectionRunsClean drives a stochastic device-failure process
// over a small workload and asserts faults actually fired, repairs landed,
// and every invariant held to the end.
func TestMTBFInjectionRunsClean(t *testing.T) {
	r := newRig(2, 8)
	h := &Harness{
		Profile: Profile{
			Name:         "aggressive",
			DeviceMTBF:   8 * units.Second,
			DeviceRepair: 3 * units.Second,
		},
		Seed:  7,
		Check: true,
	}
	h.Wire(r.eng, r.clu, r.pool, 6)
	var jobs []*job.Job
	for i := 0; i < 6; i++ {
		jobs = append(jobs, mkJob(i, 500, 60, 10*units.Second))
	}
	r.pool.Submit(jobs)
	r.eng.Run()

	if !r.pool.Done() {
		t.Fatal("pool not done after engine drained")
	}
	if v := h.Finish(); len(v) != 0 {
		t.Fatalf("invariant violations under MTBF injection:\n%v", v)
	}
	s := h.InjectorStats()
	if s.DeviceFailures == 0 {
		t.Error("no device failures injected despite an 8s MTBF")
	}
	if s.Repairs != s.DeviceFailures {
		t.Errorf("repairs %d != failures %d (a repair chain was dropped)",
			s.Repairs, s.DeviceFailures)
	}
}

// TestFaultsOutliveAnIdlePool: a streamed run's pool drains between
// arrivals, but its fault processes must keep firing until every job of
// the run is terminal. Job 0 finishes long before job 1 arrives; device
// failures must still hit the run after the idle gap.
func TestFaultsOutliveAnIdlePool(t *testing.T) {
	r := newRig(1, 50)
	h := &Harness{
		Profile: Profile{
			Name:         "idle-gap",
			DeviceMTBF:   10 * units.Second,
			DeviceRepair: units.Second,
		},
		Seed:  3,
		Check: true,
	}
	h.Wire(r.eng, r.clu, r.pool, 2)
	r.pool.Submit([]*job.Job{mkJob(0, 500, 60, units.Second)})
	const arrival = 100 * units.Second
	var beforeArrival Stats
	r.eng.After(arrival, func() {
		if !r.pool.Done() {
			t.Fatal("job 0 still running at job 1's arrival: no idle gap")
		}
		beforeArrival = h.InjectorStats()
		r.pool.Submit([]*job.Job{mkJob(1, 500, 60, 50*units.Second)})
	})
	r.eng.Run()

	if !r.pool.Done() {
		t.Fatal("pool not done after engine drained")
	}
	if v := h.Finish(); len(v) != 0 {
		t.Fatalf("invariant violations:\n%v", v)
	}
	after := h.InjectorStats().DeviceFailures - beforeArrival.DeviceFailures
	if after == 0 {
		t.Errorf("no device failure after the idle gap (%d before it): fault processes stopped when the pool first drained",
			beforeArrival.DeviceFailures)
	}
}

// TestCheckerCatchesCorruption corrupts machine bookkeeping mid-run and
// asserts the per-event checker flags it — proof the swarm's green runs
// mean something.
func TestCheckerCatchesCorruption(t *testing.T) {
	corruptions := []struct {
		name    string
		at      units.Tick
		corrupt func(p *condor.Pool)
	}{
		{"negative free memory", 2500, func(p *condor.Pool) {
			p.Machines()[0].FreeMem = -5
		}},
		{"negative resident threads", 2500, func(p *condor.Pool) {
			p.Machines()[0].ResidentThreads = -1
		}},
		{"phantom resident job", 2500, func(p *condor.Pool) {
			m := p.Machines()[0]
			m.Resident = append(m.Resident, &condor.QueuedJob{Job: mkJob(99, 100, 10, units.Second)})
		}},
		{"pending job not idle", 1, func(p *condor.Pool) {
			p.Pending()[0].State = condor.Failed
		}},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(1, 0)
			h := &Harness{Check: true}
			h.Wire(r.eng, r.clu, r.pool, 1)
			r.eng.After(tc.at, func() { tc.corrupt(r.pool) })
			r.pool.Submit([]*job.Job{mkJob(0, 500, 60, 5*units.Second)})
			r.eng.Run()
			if len(h.Violations()) == 0 {
				t.Error("checker missed the corruption")
			}
		})
	}
}

// TestCheckerLedgerTracksActiveJobs: the per-event pool law holds the
// checker's own ledger to the pool's active jobs, so a lifecycle stream
// that opens a job the pool never saw is caught at the next event boundary.
func TestCheckerLedgerTracksActiveJobs(t *testing.T) {
	r := newRig(1, 0)
	c := NewChecker(r.eng, r.clu, r.pool)
	c.Consume(obs.Event{Layer: obs.LayerCondor, Kind: "submit", Fields: []obs.Field{obs.F("job", 5)}})
	c.Check()
	if v := c.Violations(); len(v) != 1 || !strings.Contains(v[0], "ledger holds 1 jobs, pool has 0 active") {
		t.Fatalf("violations %q, want the ledger drift", v)
	}
}

// TestProfilePresets pins the built-in profiles' enablement and lookup.
func TestProfilePresets(t *testing.T) {
	if (Profile{}).Enabled() {
		t.Error("zero profile reports enabled")
	}
	for _, name := range []string{"light", "heavy"} {
		p, ok := ProfileByName(name)
		if !ok || !p.Enabled() || p.Name != name {
			t.Errorf("ProfileByName(%q) = %+v, %v", name, p, ok)
		}
	}
	if p, ok := ProfileByName("none"); !ok || p.Enabled() {
		t.Errorf("ProfileByName(none) = %+v, %v, want disabled profile", p, ok)
	}
	if _, ok := ProfileByName("bogus"); ok {
		t.Error("ProfileByName accepted an unknown name")
	}
	if len(Profiles()) < 2 {
		t.Errorf("Profiles() = %d entries, want at least light and heavy", len(Profiles()))
	}
}

// TestZeroHarnessWiresNothing: a harness with no profile and no checker
// must leave the stack untouched.
func TestZeroHarnessWiresNothing(t *testing.T) {
	r := newRig(1, 0)
	h := &Harness{}
	h.Wire(r.eng, r.clu, r.pool, 0)
	if r.eng.AfterStep != nil {
		t.Error("zero harness installed an AfterStep hook")
	}
	if r.pool.NegFaults != nil {
		t.Error("zero harness installed a negotiation fault hook")
	}
	if h.Finish() != nil || h.Violations() != nil {
		t.Error("zero harness reported violations")
	}
	if h.InjectorStats() != (Stats{}) {
		t.Error("zero harness counted injections")
	}
}

// step is one delivery to a checker: a trace event, or (retire set) the
// pool's OnTerminal for that job.
type step struct {
	e      obs.Event
	retire *condor.QueuedJob
}

// lifecycleRun runs a small MCCK cell whose three jobs walk every lifecycle
// path — job 0 lies about its memory and crashes out of its retry budget,
// job 1 completes, job 2 fits no device and is stall-aborted — and returns
// the rig plus every condor event and OnTerminal delivery in the order the
// checker saw them.
func lifecycleRun(t *testing.T) (*rig, []step) {
	t.Helper()
	eng := sim.New()
	eng.MaxSteps = 10_000_000
	clu := cluster.New(eng, cluster.Config{Nodes: 1, UseCosmic: true, Seed: 1})
	pool := condor.NewPool(eng, clu, core.New(core.Config{}), condor.Config{MaxRetries: 1})
	var steps []step
	o := obs.New() // retained, so the recorded events' fields stay valid
	o.Trace.AddConsumer(sinkFunc(func(e obs.Event) {
		if e.Layer == obs.LayerCondor {
			steps = append(steps, step{e: e})
		}
	}))
	pool.SetObserver(o)
	pool.OnTerminal = func(q *condor.QueuedJob) { steps = append(steps, step{retire: q}) }
	liar := mkJob(0, 500, 60, 2*units.Second)
	liar.ActualPeakMem = 900
	pool.Submit([]*job.Job{liar, mkJob(1, 400, 50, 2*units.Second), mkJob(2, 1<<20, 60, units.Second)})
	eng.Run()
	if !pool.Done() {
		t.Fatal("pool not done after engine drained")
	}
	if q := pool.Jobs(); q[0].State != condor.Failed || q[0].Crashes != 2 ||
		q[1].State != condor.Completed || q[2].State != condor.Failed || q[2].Crashes != 0 {
		t.Fatalf("rig did not walk the expected paths: %+v %+v %+v", *q[0], *q[1], *q[2])
	}
	return &rig{eng: eng, clu: clu, pool: pool}, steps
}

type sinkFunc func(obs.Event)

func (f sinkFunc) Consume(e obs.Event) { f(e) }

// replay feeds steps to a fresh checker over r's drained stack and returns
// its Finish report.
func replay(r *rig, steps []step) []string {
	c := NewChecker(r.eng, r.clu, r.pool)
	for _, s := range steps {
		if s.retire != nil {
			c.NoteTerminal(s.retire)
		} else {
			c.Consume(s.e)
		}
	}
	return c.Finish()
}

// at returns the index of the nth (0-based) step for job id of the given
// condor event kind, or of its OnTerminal delivery for kind "retire".
func at(t *testing.T, steps []step, id int, kind string, nth int) int {
	t.Helper()
	for i, s := range steps {
		var match bool
		if s.retire != nil {
			match = kind == "retire" && s.retire.Job.ID == id
		} else {
			match = s.e.Kind == kind && s.e.Field("job") == id
		}
		if match {
			if nth == 0 {
				return i
			}
			nth--
		}
	}
	t.Fatalf("no %s #%d for job %d in the stream", kind, nth, id)
	return -1
}

// insert returns steps with extra spliced in before index i.
func insert(steps []step, i int, extra ...step) []step {
	out := append([]step{}, steps[:i]...)
	out = append(out, extra...)
	return append(out, steps[i:]...)
}

// instant returns the execute step x moved to end's time, so the extra run
// it opens lasts zero time and leaves usage unchanged.
func instant(x, end step) step {
	x.e.At = end.e.At
	return x
}

// drop returns steps without the steps at the given indices.
func drop(steps []step, idx ...int) []step {
	gone := map[int]bool{}
	for _, i := range idx {
		gone[i] = true
	}
	var out []step
	for i, s := range steps {
		if !gone[i] {
			out = append(out, s)
		}
	}
	return out
}

// TestCheckerLifecycleLaws breaks each lifecycle law the checker enforces
// in an otherwise faithful event stream and requires the violation that
// names it. The undoctored stream must check clean.
func TestCheckerLifecycleLaws(t *testing.T) {
	r, steps := lifecycleRun(t)
	if v := replay(r, steps); len(v) != 0 {
		t.Fatalf("faithful stream reported violations:\n%v", v)
	}
	submit := func(id int) step {
		return step{e: obs.Event{At: r.eng.Now(), Layer: obs.LayerCondor, Kind: "submit",
			Fields: []obs.Field{obs.F("job", id)}}}
	}
	cases := []struct {
		name, want string
		doctor     func([]step) []step
	}{
		{"one submit per job", "job 1: 2 submit events, want 1", func(s []step) []step {
			i := at(t, s, 1, "submit", 0)
			return insert(s, i, s[i])
		}},
		{"matches equal executes", "job 1: 2 matches but 1 executions", func(s []step) []step {
			i := at(t, s, 1, "match", 0)
			return insert(s, i, s[i])
		}},
		{"executes equal crashes plus terminates", "job 1: 2 executions but 0 crashes + 1 terminations", func(s []step) []step {
			m, x := at(t, s, 1, "match", 0), at(t, s, 1, "execute", 0)
			return insert(s, x+1, s[m], s[x])
		}},
		{"crash events equal Crashes", "job 0: 3 crash events but Crashes=2", func(s []step) []step {
			m, x, c := at(t, s, 0, "match", 0), at(t, s, 0, "execute", 0), at(t, s, 0, "crash", 0)
			return insert(s, c+1, s[m], instant(s[x], s[c]), s[c])
		}},
		{"completed means one terminate", "job 1: completed with 0 terminate events", func(s []step) []step {
			return drop(s, at(t, s, 1, "match", 0), at(t, s, 1, "execute", 0), at(t, s, 1, "terminate", 0))
		}},
		{"terminated at most once", "job 1: terminated 2 times", func(s []step) []step {
			m, x, e := at(t, s, 1, "match", 0), at(t, s, 1, "execute", 0), at(t, s, 1, "terminate", 0)
			return insert(s, e+1, s[m], instant(s[x], s[e]), s[e])
		}},
		{"stall-aborted at most once", "job 2: stall-aborted 2 times", func(s []step) []step {
			i := at(t, s, 2, "stall_abort", 0)
			return insert(s, i, s[i])
		}},
		{"OnTerminal at most once", "job 1: OnTerminal fired with no live job", func(s []step) []step {
			i := at(t, s, 1, "retire", 0)
			return insert(s, i, s[i])
		}},
		{"OnTerminal at least once", "job 1 never reached a terminal state", func(s []step) []step {
			return drop(s, at(t, s, 1, "retire", 0))
		}},
		{"usage equals execution intervals", `user "": fair-share usage`, func(s []step) []step {
			i := at(t, s, 1, "terminate", 0)
			out := append([]step{}, s...)
			out[i].e.At += units.Second
			return out
		}},
		{"no job left non-terminal", "job 99 never reached a terminal state", func(s []step) []step {
			return append(append([]step{}, s...), submit(99))
		}},
		{"no event for a retired job", "job 1: match event with no live job", func(s []step) []step {
			return append(append([]step{}, s...), s[at(t, s, 1, "match", 0)])
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := replay(r, tc.doctor(steps))
			for _, msg := range v {
				if strings.Contains(msg, tc.want) {
					return
				}
			}
			t.Errorf("checker missed the broken law: want %q, got %q", tc.want, v)
		})
	}
}

// TestUsageViolationOrderIsDeterministic is the regression test for the
// philint:mapiter true positive in Checker.checkUsage. Violations land in
// the capped c.violations slice, so the iteration order over the user set
// is observable: with the old `for u := range users` map loop, which
// user's fair-share mismatch was recorded first (and which fell past the
// cap) flipped run to run. The fix iterates the users in sorted order.
// Each repetition rebuilds the checker; twelve repetitions would catch
// the old map-order behaviour with probability 1 - 2^-12.
func TestUsageViolationOrderIsDeterministic(t *testing.T) {
	// A completed two-user run, its events recorded...
	r := newRig(2, 0)
	var events []obs.Event
	o := obs.New()
	o.Trace.AddConsumer(sinkFunc(func(e obs.Event) { events = append(events, e) }))
	r.pool.SetObserver(o)
	r.pool.SubmitAs("walt", []*job.Job{mkJob(0, 500, 60, 2*units.Second)}, 0)
	r.pool.SubmitAs("ada", []*job.Job{mkJob(1, 500, 60, 2*units.Second)}, 0)
	r.eng.Run()
	for _, u := range []string{"walt", "ada"} {
		if r.pool.Usage(u) == 0 {
			t.Fatalf("user %q accrued no usage; rig did not run", u)
		}
	}

	// ...replayed as a doctored stream that stretches every execution
	// interval, so the reconstructed usage disagrees with the pool's
	// accumulator for BOTH users at once.
	for i, e := range events {
		if e.Kind == "terminate" || e.Kind == "crash" {
			events[i].At += units.Second
		}
	}

	for i := 0; i < 12; i++ {
		c := NewChecker(r.eng, r.clu, r.pool)
		for _, e := range events {
			c.Consume(e)
		}
		c.checkUsage()
		v := c.Violations()
		if len(v) != 2 {
			t.Fatalf("iteration %d: %d violations, want 2: %q", i, len(v), v)
		}
		if !strings.Contains(v[0], `user "ada"`) || !strings.Contains(v[1], `user "walt"`) {
			t.Fatalf("iteration %d: violations out of sorted user order: %q", i, v)
		}
	}
}
