package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"phishare/internal/cluster"
	"phishare/internal/condor"
	"phishare/internal/faults"
	"phishare/internal/job"
	"phishare/internal/obs"
	"phishare/internal/rng"
	"phishare/internal/sim"
	"phishare/internal/trace"
)

// TestTimelinePairsEveryOffload: on heavily faulted MCC and MCCK cells the
// offload timeline holds exactly the offloads the devices started, and
// none is still open when the run ends. The device enforces one offload in
// flight per process at the source; this checks the span builder pairs
// every start with its end across crashes, kills and resubmits.
func TestTimelinePairsEveryOffload(t *testing.T) {
	const seed = 3
	jobs := job.GenerateTableOneSet(60, rng.New(seed))
	for _, policy := range []string{PolicyMCC, PolicyMCCK} {
		cfg := RunConfig{Policy: policy, Nodes: 3, Jobs: jobs, Seed: seed}
		eng := sim.New()
		clu := cluster.New(eng, cluster.Config{Nodes: cfg.Nodes, UseCosmic: cfg.usesCosmic(), Seed: seed})
		pol := cfg.buildPolicy()
		pool := condor.NewPool(eng, clu, pol, condor.Config{MaxRetries: 4})
		spans := obs.NewSpanBuilder()
		o := obs.Streaming(spans)
		wireObservability(o, eng, pool, pol, clu)
		h := &faults.Harness{Profile: faults.HeavyProfile(), Seed: seed, Check: true, Obs: o}
		h.Wire(eng, clu, pool, len(jobs))
		pool.Submit(jobs)
		eng.Run()

		if v := h.Finish(); len(v) != 0 {
			t.Fatalf("%s: invariant violations:\n%v", policy, v)
		}
		if s := h.InjectorStats(); s.Evictions == 0 || s.OffloadKills == 0 {
			t.Fatalf("%s: the faults never cut an offload short: %+v", policy, s)
		}
		started, aborted := 0, 0
		for _, u := range clu.Units {
			started += u.Device.Stats().OffloadsStarted
			aborted += u.Device.Stats().OffloadsAborted
		}
		t.Logf("%s: %d offloads started, %d aborted; faults %+v", policy, started, aborted, h.InjectorStats())
		if n := trace.New(spans.Spans(), jobs).Len(); n != started {
			t.Errorf("%s: timeline holds %d offloads, devices started %d", policy, n, started)
		}
		for _, s := range spans.Spans() {
			for _, a := range s.Attempts {
				for _, off := range a.Offloads {
					if off.Open {
						t.Errorf("%s: job %d offload started at %v still open after the run", policy, s.Job, off.Start)
					}
				}
			}
		}
	}
}

// TestTimelineKeepsEventOrder pins the timeline's row order to the stream:
// on the MCC seed-2 cell (4 nodes, 300 Table I jobs), where many offloads
// start on one tick, the CSV rows follow the offload_start events of the
// retained trace one for one. Re-sorting rows by start and job would move
// hundreds of them.
func TestTimelineKeepsEventOrder(t *testing.T) {
	const seed = 2
	jobs := job.GenerateTableOneSet(300, rng.New(seed).Fork("tableI"))
	o := obs.New()
	spans := obs.NewSpanBuilder()
	o.Trace.AddConsumer(spans)
	Run(RunConfig{Policy: PolicyMCC, Nodes: 4, Jobs: jobs, Seed: seed, Obs: o})

	names := map[int]string{}
	for _, j := range jobs {
		names[j.ID] = j.Name
	}
	var want []string
	for _, e := range o.Trace.Events() {
		if e.Layer == obs.LayerPhi && e.Kind == "offload_start" {
			want = append(want, fmt.Sprintf("%s,%d,", names[e.Field("job").(int)], e.At))
		}
	}
	var buf bytes.Buffer
	if err := trace.New(spans.Spans(), jobs).WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(buf.String()), "\n")[1:]
	if len(rows) != len(want) {
		t.Fatalf("%d rows, %d offload_start events", len(rows), len(want))
	}
	for i := range want {
		if !strings.HasPrefix(rows[i], want[i]) {
			t.Fatalf("row %d = %q, want the offload started by event %q", i, rows[i], want[i])
		}
	}
}
