package condor_test

import (
	"testing"

	"phishare/internal/job"
	"phishare/internal/metrics"
	"phishare/internal/rng"
	"phishare/internal/scheduler"
	"phishare/internal/units"
)

// streamRig submits jobs through a record sink and drains the engine.
func streamRig(t *testing.T, jobs []*job.Job) (*testRig, []metrics.JobRecord) {
	t.Helper()
	r := rig(scheduler.NewRandomPack(rng.New(93)), 2, true)
	var recs []metrics.JobRecord
	r.pool.SetRecordSink(func(rec metrics.JobRecord) { recs = append(recs, rec) })
	r.pool.Submit(jobs)
	r.eng.Run()
	return r, recs
}

func TestStreamingPoolEmitsAndDrops(t *testing.T) {
	var jobs []*job.Job
	for i := 0; i < 8; i++ {
		jobs = append(jobs, mkJob(i, 500, 60, 2))
	}
	r, recs := streamRig(t, jobs)

	if !r.pool.Done() {
		t.Fatal("pool not done after engine drained")
	}
	if got := r.pool.Submitted(); got != 8 {
		t.Errorf("Submitted() = %d, want 8", got)
	}
	if got := r.pool.Terminal(); got != 8 {
		t.Errorf("Terminal() = %d, want 8", got)
	}
	if len(recs) != 8 {
		t.Fatalf("sink saw %d records, want 8", len(recs))
	}
	seen := map[int]bool{}
	for _, rec := range recs {
		if !rec.Completed {
			t.Errorf("job %d record not completed: %+v", rec.ID, rec)
		}
		if seen[rec.ID] {
			t.Errorf("job %d emitted twice", rec.ID)
		}
		seen[rec.ID] = true
	}
	if r.pool.PeakPending() <= 0 || r.pool.PeakInFlight() <= 0 {
		t.Errorf("footprint marks not tracked: pending=%d inflight=%d",
			r.pool.PeakPending(), r.pool.PeakInFlight())
	}
}

func TestStreamingPoolRecordsPanics(t *testing.T) {
	r, _ := streamRig(t, []*job.Job{mkJob(0, 500, 60, 1)})
	defer func() {
		if recover() == nil {
			t.Error("Records() on a streaming pool did not panic")
		}
	}()
	r.pool.Records()
}

func TestSetRecordSinkAfterSubmitPanics(t *testing.T) {
	r := rig(scheduler.NewRandomPack(rng.New(93)), 1, true)
	r.pool.Submit([]*job.Job{mkJob(0, 500, 60, 1)})
	defer func() {
		if recover() == nil {
			t.Error("SetRecordSink after Submit did not panic")
		}
	}()
	r.pool.SetRecordSink(func(metrics.JobRecord) {})
}

func TestSetRecordSinkNilPanics(t *testing.T) {
	r := rig(scheduler.NewRandomPack(rng.New(93)), 1, true)
	defer func() {
		if recover() == nil {
			t.Error("SetRecordSink(nil) did not panic")
		}
	}()
	r.pool.SetRecordSink(nil)
}

// TestStreamingRecordsMatchRetained pins the shared renderer: the sink must
// see, job for job, the same record a retaining pool computes post-hoc.
func TestStreamingRecordsMatchRetained(t *testing.T) {
	mk := func() []*job.Job {
		var jobs []*job.Job
		for i := 0; i < 10; i++ {
			jobs = append(jobs, mkJob(i, units.MB(400+i*100), 60, 2))
		}
		return jobs
	}
	ret := rig(scheduler.NewRandomPack(rng.New(93)), 2, true)
	ret.run(t, mk())
	retained := ret.pool.Records()

	_, streamed := streamRig(t, mk())
	if len(streamed) != len(retained) {
		t.Fatalf("%d streamed records vs %d retained", len(streamed), len(retained))
	}
	byID := map[int]metrics.JobRecord{}
	for _, rec := range streamed {
		byID[rec.ID] = rec
	}
	for _, want := range retained {
		if got, ok := byID[want.ID]; !ok || got != want {
			t.Errorf("job %d: streamed %+v, retained %+v", want.ID, byID[want.ID], want)
		}
	}
}

// TestRetainedPoolCountersAgree checks the O(1) counters stay truthful on
// the classic retained path too — Done() now reads them, not the queue.
func TestRetainedPoolCountersAgree(t *testing.T) {
	r := rig(scheduler.NewRandomPack(rng.New(93)), 2, true)
	var jobs []*job.Job
	for i := 0; i < 6; i++ {
		jobs = append(jobs, mkJob(i, 500, 60, 2))
	}
	r.run(t, jobs)
	if got := r.pool.Submitted(); got != 6 {
		t.Errorf("Submitted() = %d, want 6", got)
	}
	if got := r.pool.Terminal(); got != 6 || completedCount(r.pool) != 6 {
		t.Errorf("Terminal() = %d, queue says %d completed, want 6", got, completedCount(r.pool))
	}
}
