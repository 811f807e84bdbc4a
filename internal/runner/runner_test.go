package runner

import (
	"testing"

	"phishare/internal/cluster"
	"phishare/internal/job"
	"phishare/internal/phi"
	"phishare/internal/sim"
	"phishare/internal/units"
)

func mkCluster(t *testing.T, cosmic bool) (*sim.Engine, *cluster.DeviceUnit) {
	t.Helper()
	eng := sim.New()
	c := cluster.New(eng, cluster.Config{Nodes: 1, UseCosmic: cosmic})
	return eng, c.Units[0]
}

func profileJob(id int, mem, actual units.MB, threads units.Threads) *job.Job {
	return &job.Job{
		ID: id, Name: "p", Workload: "test",
		Mem: mem, Threads: threads, ActualPeakMem: actual,
		Phases: []job.Phase{
			{Kind: job.HostPhase, Duration: 1000},
			{Kind: job.OffloadPhase, Duration: 2000, Threads: threads},
			{Kind: job.HostPhase, Duration: 500},
			{Kind: job.OffloadPhase, Duration: 1500, Threads: threads},
			{Kind: job.HostPhase, Duration: 500},
		},
	}
}

func TestRunCompletesSequentially(t *testing.T) {
	eng, u := mkCluster(t, true)
	j := profileJob(1, 500, 450, 120)
	var res Result
	var end units.Tick
	Run(eng, u, j, func(r Result) { res = r; end = eng.Now() })
	eng.Run()
	if res.Outcome != Completed {
		t.Fatalf("outcome %v", res.Outcome)
	}
	if end != j.SequentialTime() {
		t.Errorf("ended at %v, want sequential time %v", end, j.SequentialTime())
	}
	if u.Device.ProcessCount() != 0 {
		t.Error("process not detached after completion")
	}
}

func TestTwoMaximalJobsInterleave(t *testing.T) {
	// The Fig. 2 scenario: two jobs whose offloads each need all 240
	// threads share a device under COSMIC. Offloads serialize, but host
	// gaps overlap, so the concurrent makespan beats the sequential sum.
	eng, u := mkCluster(t, true)
	mk := func(id int) *job.Job {
		return &job.Job{
			ID: id, Name: "max", Workload: "test",
			Mem: 1000, Threads: 240, ActualPeakMem: 900,
			Phases: []job.Phase{
				{Kind: job.HostPhase, Duration: 2000},
				{Kind: job.OffloadPhase, Duration: 3000, Threads: 240},
				{Kind: job.HostPhase, Duration: 2000},
				{Kind: job.OffloadPhase, Duration: 3000, Threads: 240},
				{Kind: job.HostPhase, Duration: 1000},
			},
		}
	}
	j1, j2 := mk(1), mk(2)
	doneCount := 0
	var last units.Tick
	for _, j := range []*job.Job{j1, j2} {
		j := j
		Run(eng, u, j, func(r Result) {
			if r.Outcome != Completed {
				t.Errorf("%s crashed", j.Name)
			}
			doneCount++
			last = eng.Now()
		})
	}
	eng.Run()
	if doneCount != 2 {
		t.Fatalf("completed %d jobs", doneCount)
	}
	seqSum := j1.SequentialTime() + j2.SequentialTime()
	if last >= seqSum {
		t.Errorf("concurrent makespan %v not better than sequential sum %v", last, seqSum)
	}
	if u.Device.RunningThreads() != 0 {
		t.Error("threads leaked")
	}
}

func TestTwoPartialJobsOverlapBetter(t *testing.T) {
	// Fig. 3: two 120-thread jobs overlap their offloads fully; the
	// concurrent makespan approaches a single job's sequential time.
	eng, u := mkCluster(t, true)
	mk := func(id int) *job.Job {
		return &job.Job{
			ID: id, Name: "half", Workload: "test",
			Mem: 1000, Threads: 120, ActualPeakMem: 900,
			Phases: []job.Phase{
				{Kind: job.HostPhase, Duration: 1000},
				{Kind: job.OffloadPhase, Duration: 3000, Threads: 120},
				{Kind: job.HostPhase, Duration: 1000},
				{Kind: job.OffloadPhase, Duration: 3000, Threads: 120},
			},
		}
	}
	j1, j2 := mk(1), mk(2)
	var last units.Tick
	for _, j := range []*job.Job{j1, j2} {
		Run(eng, u, j, func(r Result) { last = eng.Now() })
	}
	eng.Run()
	if last != j1.SequentialTime() {
		t.Errorf("concurrent makespan %v, want %v (full overlap)", last, j1.SequentialTime())
	}
}

func TestCrashedJobReportsKillReason(t *testing.T) {
	eng, u := mkCluster(t, true)
	j := profileJob(1, 500, 800, 120) // misestimates memory
	var res Result
	got := 0
	Run(eng, u, j, func(r Result) { res = r; got++ })
	eng.Run()
	if got != 1 {
		t.Fatalf("done called %d times", got)
	}
	if res.Outcome != Crashed || res.KillReason != phi.KillContainer {
		t.Errorf("result %+v, want container crash", res)
	}
}

func TestCrashDuringHostPhaseRaw(t *testing.T) {
	// Raw mode: job A sits in a host phase while B's commit OOMs the card;
	// if A is the victim it must report a crash exactly once.
	eng, u := mkCluster(t, false)
	big := func(id int) *job.Job {
		return &job.Job{
			ID: id, Name: "big", Workload: "test",
			Mem: 5000, Threads: 60, ActualPeakMem: 5000,
			Phases: []job.Phase{
				{Kind: job.HostPhase, Duration: 4000},
				{Kind: job.OffloadPhase, Duration: 2000, Threads: 60},
			},
		}
	}
	counts := map[int]int{}
	crashes := 0
	for i := 0; i < 3; i++ {
		i := i
		Run(eng, u, big(i), func(r Result) {
			counts[i]++
			if r.Outcome == Crashed {
				crashes++
			}
		})
	}
	eng.Run()
	for id, n := range counts {
		if n != 1 {
			t.Errorf("job %d reported %d times", id, n)
		}
	}
	// 3 x 5 GB on an 8 GB card must kill at least one process eventually.
	if crashes == 0 {
		t.Error("no crashes despite 15 GB committed on an 8 GB card")
	}
	if len(counts) != 3 {
		t.Errorf("only %d jobs reported", len(counts))
	}
}

func TestRunSingleHostPhaseJob(t *testing.T) {
	eng, u := mkCluster(t, true)
	j := &job.Job{
		ID: 1, Name: "h", Workload: "t", Mem: 100, Threads: 60, ActualPeakMem: 90,
		Phases: []job.Phase{{Kind: job.HostPhase, Duration: 700}},
	}
	var end units.Tick
	Run(eng, u, j, func(Result) { end = eng.Now() })
	eng.Run()
	if end != 700 {
		t.Errorf("host-only job ended at %v", end)
	}
}

func TestManyJobsAllComplete(t *testing.T) {
	eng, u := mkCluster(t, true)
	done := 0
	for i := 0; i < 12; i++ {
		Run(eng, u, profileJob(i, 400, 350, 60), func(r Result) {
			if r.Outcome != Completed {
				t.Errorf("job crashed: %+v", r)
			}
			done++
		})
	}
	eng.Run()
	if done != 12 {
		t.Errorf("%d/12 jobs completed", done)
	}
	if u.Device.ProcessCount() != 0 || u.Device.RunningThreads() != 0 {
		t.Error("device not clean after all jobs")
	}
}

func TestOffloadTransfersExtendRuntime(t *testing.T) {
	// An offload with 600 MB in and 600 MB out on a 6 GB/s link adds
	// 200 ms to the phase sequence.
	eng, u := mkCluster(t, true)
	j := &job.Job{
		ID: 1, Name: "xfer", Workload: "test",
		Mem: 1000, Threads: 120, ActualPeakMem: 900,
		Phases: []job.Phase{
			{Kind: job.OffloadPhase, Duration: 1000, Threads: 120,
				TransferIn: 600, TransferOut: 600},
		},
	}
	var end units.Tick
	Run(eng, u, j, func(Result) { end = eng.Now() })
	eng.Run()
	if end != 1200 {
		t.Errorf("job with transfers ended at %v, want 1200", end)
	}
}

func TestConcurrentTransfersContend(t *testing.T) {
	// Two jobs transferring 600 MB in simultaneously share the link:
	// each takes 200 ms before its kernel starts; kernels (120 threads)
	// then overlap. Total 200 + 1000 = 1200.
	eng, u := mkCluster(t, true)
	mk := func(id int) *job.Job {
		return &job.Job{
			ID: id, Name: "xfer", Workload: "test",
			Mem: 1000, Threads: 120, ActualPeakMem: 900,
			Phases: []job.Phase{
				{Kind: job.OffloadPhase, Duration: 1000, Threads: 120, TransferIn: 600},
			},
		}
	}
	var last units.Tick
	for i := 0; i < 2; i++ {
		Run(eng, u, mk(i), func(Result) {
			if eng.Now() > last {
				last = eng.Now()
			}
		})
	}
	eng.Run()
	if last != 1200 {
		t.Errorf("contended jobs finished at %v, want 1200", last)
	}
}

func TestTransferVictimDoesNotContinue(t *testing.T) {
	// A job that dies at offload admission (memory container) after its
	// in-transfer completes must not start its kernel — and must report
	// exactly one crash.
	eng, u := mkCluster(t, true)
	j := &job.Job{
		ID: 1, Name: "doomed", Workload: "test",
		Mem: 500, Threads: 60, ActualPeakMem: 800, // underestimate
		Phases: []job.Phase{
			{Kind: job.OffloadPhase, Duration: 1000, Threads: 60, TransferIn: 600},
		},
	}
	var res Result
	count := 0
	Run(eng, u, j, func(r Result) { res = r; count++ })
	eng.Run()
	if count != 1 || res.Outcome != Crashed || res.KillReason != phi.KillContainer {
		t.Errorf("result %+v (count %d)", res, count)
	}
	if u.Device.Stats().OffloadsStarted != 0 {
		t.Error("kernel started despite container kill at admission")
	}
	if u.Link.Stats().Transfers != 1 {
		t.Errorf("in-transfer count %d, want 1 (DMA happens before the kill)", u.Link.Stats().Transfers)
	}
}

func TestRunKilledAtAdmissionReportsOnce(t *testing.T) {
	// A job whose declared memory exceeds the device entirely is rejected
	// by COSMIC's container creation; the runner must report one crash.
	eng, u := mkCluster(t, true)
	j := &job.Job{
		ID: 1, Name: "huge", Workload: "test",
		Mem: 9999, Threads: 60, ActualPeakMem: 9000,
		Phases: []job.Phase{{Kind: job.OffloadPhase, Duration: 100, Threads: 60}},
	}
	count := 0
	var res Result
	Run(eng, u, j, func(r Result) { res = r; count++ })
	eng.Run()
	if count != 1 || res.Outcome != Crashed {
		t.Errorf("result %+v count %d", res, count)
	}
}

func TestRunBlockedAdmissionEventuallyRuns(t *testing.T) {
	// Two 5 GB jobs: the second waits at admission until the first exits,
	// then runs to completion.
	eng, u := mkCluster(t, true)
	mk := func(id int) *job.Job {
		return &job.Job{
			ID: id, Name: "big", Workload: "test",
			Mem: 5000, Threads: 60, ActualPeakMem: 4500,
			Phases: []job.Phase{{Kind: job.OffloadPhase, Duration: 1000, Threads: 60}},
		}
	}
	var ends []units.Tick
	for i := 0; i < 2; i++ {
		Run(eng, u, mk(i), func(r Result) {
			if r.Outcome != Completed {
				t.Errorf("job %d crashed", i)
			}
			ends = append(ends, eng.Now())
		})
	}
	eng.Run()
	if len(ends) != 2 {
		t.Fatalf("completions %d", len(ends))
	}
	if ends[0] != 1000 || ends[1] != 2000 {
		t.Errorf("ends %v, want [1000 2000] (admission serialized)", ends)
	}
}

func TestRunOutcomeStrings(t *testing.T) {
	if Completed.String() != "completed" || Crashed.String() != "crashed" {
		t.Error("outcome strings wrong")
	}
}
