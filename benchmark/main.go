// Command benchmark is phishare's end-to-end and per-layer benchmark. It
// runs one named workload through the front door, experiments.Run, for a
// fixed wall-clock budget and prints the end-to-end metrics (--trace 0),
// or re-assembles the same stack from the layers' public constructors and
// times the calls into each layer (--trace 1). Every run is checked: all
// jobs terminal, and every run of a seed identical to its reference run.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 7, "failed": 0, "metrics": {...}}
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"phishare/internal/experiments"
	"phishare/internal/units"
)

// Repetition counts. Set-up is cheap next to a run, so it is repeated for
// a steady median; timed runs repeat until the budget is spent, but never
// fewer than minRuns times.
const (
	setupReps = 21
	minRuns   = 3
)

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(names(), ", ")+", or all")
	seed := flag.Int64("seed", 0, fmt.Sprintf("workload seed (default: the workload's own; %d is the held-out seed)", heldOut))
	seconds := flag.Int("seconds", 10, "wall-clock seconds of timed runs per measurement")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced runs (all runs both)")
	flag.Parse()
	seedSet := false
	flag.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "seed" })

	if err := run(*name, *seed, seedSet, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func names() []string {
	var out []string
	for _, s := range specs {
		out = append(out, s.name)
	}
	return out
}

type metric struct {
	name, unit string
	value      float64
}

// errIncorrect marks a failed correctness check, as opposed to bad usage.
var errIncorrect = errors.New("correctness check failed")

func run(name string, seed int64, seedSet bool, seconds, trace int) error {
	if seconds < 1 {
		return fmt.Errorf("--seconds %d: want at least 1", seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", trace)
	}
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	budget := time.Duration(seconds) * time.Second

	var todo []spec
	if name == "all" {
		todo = specs
	} else {
		s, err := lookup(name)
		if err != nil {
			return err
		}
		todo = []spec{s}
	}

	var all []metric
	attempted := 0
	for _, sp := range todo {
		sd := sp.seed
		if seedSet {
			sd = seed
		}
		modes := []int{trace}
		if name == "all" {
			modes = []int{0, 1}
		}
		for _, mode := range modes {
			s := &session{spec: sp, seed: sd, budget: budget, fp: hostFingerprint()}
			s.fp.Workload, s.fp.Seed, s.fp.Seconds, s.fp.Trace = sp.name, sd, seconds, mode
			var ms []metric
			var err error
			if mode == 0 {
				ms, err = s.endToEnd()
			} else {
				ms, err = s.perLayer()
			}
			attempted += s.runs
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %v\n", sp.name, sd, err)
				printResult(false, attempted, 1, nil)
				return errIncorrect
			}
			s.report(ms)
			if name == "all" {
				for _, m := range ms {
					m.name = sp.name + "/" + m.name
					all = append(all, m)
				}
			} else {
				all = ms
			}
		}
	}
	return printResult(true, attempted, 0, all)
}

// session measures one workload at one seed in one mode.
type session struct {
	spec   spec
	seed   int64
	budget time.Duration
	fp     fingerprint
	in     inputs
	ref    outcome
	runs   int // simulation runs made, the result's "attempted"
}

// reference runs the workload once through the front door, untimed. Its
// outcome is what every later run of the seed must reproduce, and its
// engine choice is what the traced and set-up stacks mirror.
func (s *session) reference(probe bool) error {
	s.in = s.spec.inputs(s.seed)
	cfg := s.spec.config(s.in, s.seed)
	if probe {
		cfg.MemProbeEvery = max(1, (s.spec.jobs+s.spec.arrivals)/16)
	}
	s.runs++
	s.ref = outcomeOf(experiments.Run(cfg))
	s.fp.Engine, s.fp.Workers, s.fp.Epochs = "serial", 0, s.ref.Epochs
	if s.ref.Parallel {
		s.fp.Engine, s.fp.Workers = "parallel", runtime.GOMAXPROCS(0)
	}
	return terminal(s.ref)
}

// cost is the host cost of one run: wall-clock time, and the CPU time of
// every thread of the process (user plus system).
type cost struct{ wall, cpu time.Duration }

// frontDoor is one timed, checked run of experiments.Run.
func (s *session) frontDoor() (cost, error) {
	cfg := s.spec.config(s.in, s.seed)
	runtime.GC()
	s.runs++
	c0, t0 := cpuTime(), hostNow()
	res := experiments.Run(cfg)
	c := cost{wall: hostNow().Sub(t0), cpu: cpuTime() - c0}
	return c, check(outcomeOf(res), s.ref)
}

// traced is one checked run of the traced stack; its cost covers the same
// span a front-door run does, from configuration to outcome.
func (s *session) traced() (*tracer, *stack, cost, error) {
	cfg := s.spec.config(s.in, s.seed)
	runtime.GC()
	s.runs++
	c0, t0 := cpuTime(), hostNow()
	tr := &tracer{}
	st := assemble(cfg, s.ref.Parallel, tr)
	*tr = tracer{core: tr.core} // submissions before eng.Run are set-up
	out, err := st.run()
	c := cost{wall: hostNow().Sub(t0), cpu: cpuTime() - c0}
	if err == nil {
		err = check(out, s.ref)
	}
	return tr, st, c, err
}

func (s *session) endToEnd() ([]metric, error) {
	if err := s.reference(true); err != nil {
		return nil, err
	}
	ref := s.ref
	var setups []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		c0 := cpuTime()
		in := s.spec.inputs(s.seed)
		assemble(s.spec.config(in, s.seed), ref.Parallel, nil)
		setups = append(setups, (cpuTime() - c0).Seconds())
	}
	var rates []float64
	start := hostNow()
	for len(rates) < minRuns || hostNow().Sub(start) < s.budget {
		c, err := s.frontDoor()
		if err != nil {
			return nil, err
		}
		rates = append(rates, float64(ref.JobCount)/c.cpu.Seconds())
	}
	// One traced run per measurement, so the traced stack's equivalence
	// with the front door is checked on every seed measured.
	if _, _, _, err := s.traced(); err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	sum := ref.Summary
	return []metric{
		{"jobs_per_cpu_s", "jobs/cpu_s", median(rates)},
		{"setup_s", "s", median(setups)},
		{"peak_heap_mb", "MB", float64(ref.Stream.PeakHeapBytes) / 1e6},
		{"completed_frac", "ratio", ratio(float64(sum.Completed), float64(ref.JobCount))},
		{"makespan_s", "sim_s", ref.Makespan.Seconds()},
		{"mean_wait_s", "sim_s", sum.MeanWait.Seconds()},
		{"stretch", "ratio", ref.Stream.Stretch},
		{"util_pct", "%", sum.AvgUtilization * 100},
	}, nil
}

func (s *session) perLayer() ([]metric, error) {
	if err := s.reference(false); err != nil {
		return nil, err
	}
	var (
		tracedCPU, plainCPU []float64
		plainWall           []float64
		allocMB, gcs        []float64
		reps                [][]metric
	)
	start := hostNow()
	for i := 0; i < 2 || hostNow().Sub(start) < s.budget; i++ {
		if i%2 == 0 {
			tr, st, c, err := s.traced()
			if err != nil {
				return nil, fmt.Errorf("traced run: %w", err)
			}
			tracedCPU = append(tracedCPU, c.cpu.Seconds())
			reps = append(reps, layerMetrics(tr, st))
			continue
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		c, err := s.frontDoor()
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&after)
		plainWall = append(plainWall, c.wall.Seconds())
		plainCPU = append(plainCPU, c.cpu.Seconds())
		allocMB = append(allocMB, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
		gcs = append(gcs, float64(after.NumGC-before.NumGC))
	}
	// Every per-run metric is reported as its median over the traced runs;
	// the counts among them are identical run to run.
	ms := reps[0]
	for i := range ms {
		vals := make([]float64, len(reps))
		for r := range reps {
			vals[r] = reps[r][i].value
		}
		ms[i].value = median(vals)
	}
	tracedMed, plainMed := median(tracedCPU), median(plainCPU)
	return append(ms,
		metric{"runtime.alloc_mb", "MB", median(allocMB)},
		metric{"runtime.gc_cycles", "count", median(gcs)},
		metric{"runtime.cpu_s", "s", plainMed},
		metric{"bench.wall_jobs_per_s", "jobs/s", float64(s.ref.JobCount) / median(plainWall)},
		metric{"bench.trace_overhead_pct", "%", 100 * (tracedMed - plainMed) / plainMed},
	), nil
}

// layerMetrics reads one traced run's per-layer metrics off its tracer
// and its stack's counters.
func layerMetrics(tr *tracer, st *stack) []metric {
	l := tr.layers()
	ps := st.pool.Stats()
	// The policy hooks belong to core under MCCK and to the scheduler
	// otherwise; the other layer's hook metrics read zero.
	var sched, core float64
	if tr.core {
		core = 1
	} else {
		sched = 1
	}
	var plan time.Duration
	for _, d := range tr.plans {
		plan += d
	}
	steps := st.eng.Steps()

	var offloads, queued, cosmicKills, started, aborted, oom int
	var queueWait, admitWait units.Tick
	for _, u := range st.clu.Units {
		if u.Cosmic != nil {
			cs := u.Cosmic.Stats()
			offloads += cs.OffloadsDispatched
			queued += cs.OffloadsQueued
			cosmicKills += cs.ContainerKills
			queueWait += cs.TotalQueueWait
			admitWait += cs.TotalAdmitWait
		}
		ds := u.Device.Stats()
		started += ds.OffloadsStarted
		aborted += ds.OffloadsAborted
		oom += ds.OOMKills
	}
	pct := func(d time.Duration) float64 { return 100 * ratio(d.Seconds(), l.total.Seconds()) }
	return []metric{
		{"workload.next_calls", "count", float64(tr.nextCalls)},
		{"workload.next_host_s", "s", tr.next.Seconds()},
		{"condor.cycles", "count", float64(ps.Negotiations)},
		{"condor.cycle_skips", "count", float64(ps.CycleSkips)},
		{"condor.matches", "count", float64(ps.Matches)},
		{"condor.qedits", "count", float64(ps.Qedits)},
		{"condor.pending_scanned", "count", float64(tr.pendingScanned)},
		{"condor.match_yield", "ratio", ratio(float64(ps.Matches), float64(tr.pendingScanned))},
		{"condor.scan_host_s", "s", l.scan.Seconds()},
		{"condor.submit_host_s", "s", (tr.submit - tr.prepareSubmit).Seconds()},
		{"condor.cycle_p50_us", "us", percentile(tr.cycles, 50)},
		{"condor.cycle_p99_us", "us", percentile(tr.cycles, 99)},
		{"scheduler.select_calls", "count", sched * float64(tr.selectCalls)},
		{"scheduler.select_host_s", "s", sched * tr.selects.Seconds()},
		{"scheduler.candidates_mean", "count", sched * ratio(float64(tr.candidates), float64(tr.selectCalls))},
		{"core.plans", "count", core * float64(len(tr.plans))},
		{"core.planned_jobs", "count", core * float64(tr.planned)},
		{"core.plan_yield", "ratio", core * ratio(float64(ps.Matches), float64(tr.planned))},
		{"core.plan_host_s", "s", core * plan.Seconds()},
		{"core.plan_p99_us", "us", core * percentile(tr.plans, 99)},
		{"sim.events", "count", float64(steps)},
		{"sim.epochs", "count", float64(st.eng.Epochs())},
		{"sim.run_host_s", "s", tr.engine.Seconds()},
		{"sim.ns_per_event", "ns", ratio(float64(tr.engine.Nanoseconds()), float64(steps))},
		{"sim.other_host_s", "s", l.other.Seconds()},
		{"cosmic.offloads", "count", float64(offloads)},
		{"cosmic.queued_frac", "ratio", ratio(float64(queued), float64(offloads))},
		{"cosmic.queue_wait_s", "sim_s", queueWait.Seconds()},
		{"cosmic.admit_wait_s", "sim_s", admitWait.Seconds()},
		{"cosmic.container_kills", "count", float64(cosmicKills)},
		{"phi.offloads_started", "count", float64(started)},
		{"phi.offloads_aborted", "count", float64(aborted)},
		{"phi.oom_kills", "count", float64(oom)},
		{"metrics.records", "count", float64(tr.records)},
		{"metrics.sink_host_s", "s", l.metrics.Seconds()},
		{"share.workload_pct", "%", pct(l.workload)},
		{"share.condor_pct", "%", pct(l.condor)},
		{"share.scheduler_pct", "%", pct(l.scheduler)},
		{"share.core_pct", "%", pct(l.core)},
		{"share.metrics_pct", "%", pct(l.metrics)},
		{"share.sim_other_pct", "%", pct(l.other)},
	}
}

// report prints the host fingerprint and a readable metric table to
// standard error, and the fingerprint as a JSON line to standard output.
func (s *session) report(ms []metric) {
	fp, _ := json.Marshal(s.fp) // a struct of strings and numbers always marshals
	fmt.Printf("fingerprint %s\n", fp)
	fmt.Fprintf(os.Stderr, "%s seed=%d trace=%d: nproc=%d GOMAXPROCS=%d %s cpu=%q engine=%s workers=%d epochs=%d runs=%d\n",
		s.fp.Workload, s.fp.Seed, s.fp.Trace, s.fp.NProc, s.fp.GOMAXPROCS, s.fp.Go, s.fp.CPU,
		s.fp.Engine, s.fp.Workers, s.fp.Epochs, s.runs)
	tw := tabwriter.NewWriter(os.Stderr, 0, 0, 2, ' ', tabwriter.AlignRight)
	for _, m := range ms {
		fmt.Fprintf(tw, "  %s\t%s\t%s\t\n", m.name, strconv.FormatFloat(m.value, 'g', 6, 64), m.unit)
	}
	tw.Flush()
}

// printResult writes the result line, the last line of standard output.
func printResult(correct bool, attempted, failed int, ms []metric) error {
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`, correct, attempted, failed)
	for i, m := range ms {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		if i > 0 {
			b.WriteString(", ")
		}
		name, _ := json.Marshal(m.name) // strings always marshal
		unit, _ := json.Marshal(m.unit)
		fmt.Fprintf(&b, `%s: {"value": %s, "unit": %s}`, name, strconv.FormatFloat(m.value, 'g', -1, 64), unit)
	}
	b.WriteString("}}")
	fmt.Println(b.String())
	return nil
}
