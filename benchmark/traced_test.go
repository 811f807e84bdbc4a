package main

import (
	"testing"

	"phishare/internal/experiments"
)

// TestTracedStackMatchesFrontDoor runs a small cell of every workload
// through experiments.Run and through the traced stack, and requires the
// two outcomes to be identical. The traced stack wraps the policy, the
// arrival source and the record sink, so a wrapper that drops a hook, or
// the condor.ExternalPolicy reaction delay MCCK relies on, changes the
// outcome and fails here. The cells run on the default engine, parallel on
// a multi-core host, so running this under -race also checks that nothing
// the tracer counts is shared with node lanes.
func TestTracedStackMatchesFrontDoor(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shrink func(*spec)
	}{
		{"mcck-table1", func(s *spec) { s.jobs = 200 }},
		{"mcc-deepq", func(s *spec) { s.jobs, s.nodes = 600, 10 }},
		{"diurnal-stream", func(s *spec) { s.arrivals, s.nodes = 3000, 40 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sp, err := lookup(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			tc.shrink(&sp)
			in := sp.inputs(sp.seed)
			ref := outcomeOf(experiments.Run(sp.config(in, sp.seed)))
			if err := terminal(ref); err != nil {
				t.Fatal(err)
			}
			tr := &tracer{}
			got, err := assemble(sp.config(in, sp.seed), ref.Parallel, tr).run()
			if err != nil {
				t.Fatal(err)
			}
			if err := check(got, ref); err != nil {
				t.Fatal(err)
			}
			if len(tr.cycles) == 0 || tr.records != ref.JobCount {
				t.Errorf("tracer saw %d cycles and %d records, want cycles and %d records",
					len(tr.cycles), tr.records, ref.JobCount)
			}
			if (sp.arrivals > 0) != (tr.nextCalls > 0) {
				t.Errorf("%d Source.Next calls timed for a cell with %d arrivals", tr.nextCalls, sp.arrivals)
			}
		})
	}
}
