// Timeline renders the paper's Figs. 2–3: how two offload jobs share one
// Xeon Phi. With maximal (240-thread) offloads, COSMIC serializes kernels
// but host gaps interleave; with partial (120-thread) offloads the kernels
// overlap outright. Both beat running the jobs back to back.
//
//	go run ./examples/timeline
package main

import (
	"fmt"

	"phishare/internal/cluster"
	"phishare/internal/job"
	"phishare/internal/runner"
	"phishare/internal/sim"
	"phishare/internal/trace"
	"phishare/internal/units"
)

func main() {
	fmt.Println("Fig. 2 — two jobs whose offloads use all 240 hardware threads:")
	share(240)
	fmt.Println("Fig. 3 — two jobs whose offloads use 120 threads (50%):")
	share(120)
}

// mkJob builds the illustrative jobs: J1 with two offloads, J2 with three,
// separated by host phases, as drawn in the paper.
func mkJob(id int, name string, threads units.Threads, offloads int) *job.Job {
	j := &job.Job{
		ID: id, Name: name, Workload: "figure",
		Mem: 1000, Threads: threads, ActualPeakMem: 900,
	}
	j.Phases = append(j.Phases, job.Phase{Kind: job.HostPhase, Duration: 2 * units.Second})
	for i := 0; i < offloads; i++ {
		j.Phases = append(j.Phases,
			job.Phase{Kind: job.OffloadPhase, Duration: 3 * units.Second, Threads: threads},
			job.Phase{Kind: job.HostPhase, Duration: 2 * units.Second})
	}
	return j
}

func share(threads units.Threads) {
	eng := sim.New()
	clu := cluster.New(eng, cluster.Config{Nodes: 1, UseCosmic: true, Seed: 1})
	rec := trace.NewRecorder()
	clu.Units[0].Device.Trace = rec

	j1 := mkJob(1, "J1", threads, 2)
	j2 := mkJob(2, "J2", threads, 3)
	var makespan units.Tick
	for _, j := range []*job.Job{j1, j2} {
		runner.Run(eng, clu.Units[0], j, func(r runner.Result) {
			if eng.Now() > makespan {
				makespan = eng.Now()
			}
		})
	}
	eng.Run()

	fmt.Print(rec.Render(72, 240))
	seq := j1.SequentialTime() + j2.SequentialTime()
	fmt.Printf("concurrent makespan: %4.0f s\n", makespan.Seconds())
	fmt.Printf("sequential makespan: %4.0f s  (saving %.0f%%)\n\n",
		seq.Seconds(), (1-float64(makespan)/float64(seq))*100)
}
