package main

import (
	"fmt"

	"phishare/internal/experiments"
	"phishare/internal/job"
	"phishare/internal/phi"
	"phishare/internal/rng"
	"phishare/internal/workload"
)

// spec is one named benchmark workload: the front-door configuration a
// seed expands to. Every field but the name and the default seed sizes the
// cell, so tests can shrink a copy without changing its shape.
type spec struct {
	name string
	// seed is used when the command line names none.
	seed int64

	policy string
	nodes  int
	// jobs > 0 submits that many Table I jobs at t=0 with records
	// retained; arrivals > 0 instead streams a diurnal day of that many
	// arrivals over a heterogeneous pool, emitting and dropping records.
	jobs     int
	arrivals int
}

// heldOut is the seed not used while a change is written; a claimed gain
// must hold on it as well as on the workload's default seed.
const heldOut = 101

var specs = []spec{
	// The paper's Table II cell, the only one where core plans and qedits.
	{name: "mcck-table1", seed: 11, policy: experiments.PolicyMCCK, nodes: 8, jobs: 3000},
	// A deep queue: the pending x machines negotiation scan dominates.
	{name: "mcc-deepq", seed: 11, policy: experiments.PolicyMCC, nodes: 100, jobs: 10000},
	// A streamed diurnal day with a shallow queue: engine, node side and
	// the arrival pump lead.
	{name: "diurnal-stream", seed: 23, policy: experiments.PolicyMCC, nodes: 1000, arrivals: 50000},
}

func lookup(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// inputs is what a seed generates before any simulation state exists: the
// t=0 job set, or the heterogeneous device assignment of a diurnal pool.
type inputs struct {
	jobs    []*job.Job
	devices []phi.Config
}

func (s spec) inputs(seed int64) inputs {
	if s.arrivals > 0 {
		return inputs{devices: workload.HeterogeneousPool(seed, s.nodes, nil)}
	}
	return inputs{jobs: job.GenerateTableOneSet(s.jobs, rng.New(seed).Fork("tableI"))}
}

// config is the front-door configuration for one run. Diurnal sources are
// single-pass, so every run gets a fresh one; t=0 job sets are reusable.
// Everything not set here, Parallel included, keeps its RunConfig default.
func (s spec) config(in inputs, seed int64) experiments.RunConfig {
	cfg := experiments.RunConfig{
		Policy:      s.policy,
		Nodes:       s.nodes,
		Jobs:        in.jobs,
		NodeDevices: in.devices,
		Seed:        seed,
	}
	if s.arrivals > 0 {
		cfg.Source = workload.NewDiurnal(workload.DiurnalConfig{
			N:          s.arrivals,
			Seed:       seed,
			BurstCount: 6,
			Tenants:    1000,
		})
		cfg.Stream = true
	}
	return cfg
}
