package experiments

import (
	"fmt"
	"testing"

	"phishare/internal/condor"
	"phishare/internal/job"
	"phishare/internal/metrics"
	"phishare/internal/units"
	"phishare/internal/workload"
)

// fuzzArrivals decodes a fuzz input into an arrival schedule, four bytes
// per arrival: the gap since the previous arrival, the tenant, the declared
// memory and the declared threads. The top bit of the threads byte makes
// the job touch more memory than it declared, so COSMIC kills it and the
// crash/resubmit path runs too. At most 32 arrivals, so a cell stays small.
func fuzzArrivals(data []byte) []workload.Arrival {
	var arrivals []workload.Arrival
	var at units.Tick
	for i := 0; i+4 <= len(data) && len(arrivals) < 32; i += 4 {
		gap, tenant, mem, threads := data[i], data[i+1], data[i+2], data[i+3]
		at += units.Tick(gap%64) * 5 * units.Second
		j := &job.Job{
			ID:       len(arrivals),
			Name:     fmt.Sprintf("fuzz#%d", len(arrivals)),
			Workload: "fuzz",
			Mem:      128 + units.MB(mem)*32,
			Threads:  4 * units.Threads(1+threads%60),
		}
		j.ActualPeakMem = j.Mem * 9 / 10
		if threads&0x80 != 0 {
			j.ActualPeakMem = j.Mem * 5 / 4
		}
		j.Phases = []job.Phase{
			{Kind: job.HostPhase, Duration: units.Second},
			{Kind: job.OffloadPhase, Duration: units.Tick(2+mem%5) * units.Second, Threads: j.Threads},
			{Kind: job.HostPhase, Duration: units.Second},
		}
		name := ""
		if tenant%4 != 0 {
			name = fmt.Sprintf("u%d", tenant%4)
		}
		arrivals = append(arrivals, workload.Arrival{Job: j, Tenant: name, At: at})
	}
	return arrivals
}

// FuzzStreamingMatchesRetained fuzzes the record pipeline: arbitrary
// arrival times, tenants and job sizes go through workload.FromArrivals
// into a small cell, and the emit-and-drop streaming run must equal the
// retained run — record for record (modulo order: streaming emits at
// completion, retention at submission) and in every online aggregate.
// The committed corpus under testdata/fuzz runs as part of plain go test.
func FuzzStreamingMatchesRetained(f *testing.F) {
	f.Add(byte(0), int64(1), []byte{0, 0, 40, 59, 3, 1, 120, 30, 0, 2, 200, 0x80 | 14})
	f.Add(byte(2), int64(7), []byte{0, 1, 10, 10, 0, 1, 10, 10, 0, 2, 90, 59, 12, 3, 250, 5})
	f.Fuzz(func(t *testing.T, policy byte, seed int64, data []byte) {
		arrivals := fuzzArrivals(data)
		if len(arrivals) == 0 {
			return
		}
		pol := Policies()[int(policy)%len(Policies())]
		cell := func(stream bool) (Result, []metrics.JobRecord) {
			var recs []metrics.JobRecord
			res := Run(RunConfig{
				Policy:     pol,
				Nodes:      2,
				Source:     workload.FromArrivals(arrivals),
				Seed:       seed,
				Condor:     condor.Config{MaxRetries: 1, FairShare: true},
				Stream:     stream,
				RecordSink: &recs,
			})
			sortRecords(recs)
			return res, recs
		}
		retained, retRecs := cell(false)
		streamed, strRecs := cell(true)
		if streamed.Makespan != retained.Makespan || streamed.Summary != retained.Summary {
			t.Fatalf("%s: streaming makespan/summary %v %+v != retained %v %+v",
				pol, streamed.Makespan, streamed.Summary, retained.Makespan, retained.Summary)
		}
		if streamed.Stream != retained.Stream {
			t.Fatalf("%s: streaming aggregates %+v != retained %+v", pol, streamed.Stream, retained.Stream)
		}
		if len(strRecs) != len(retRecs) || len(strRecs) != len(arrivals) {
			t.Fatalf("%s: %d streamed records, %d retained, %d arrivals",
				pol, len(strRecs), len(retRecs), len(arrivals))
		}
		for i := range retRecs {
			if strRecs[i] != retRecs[i] {
				t.Fatalf("%s: record %d: streamed %+v != retained %+v", pol, i, strRecs[i], retRecs[i])
			}
		}
	})
}
