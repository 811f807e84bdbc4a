package coi

import (
	"strings"
	"testing"

	"phishare/internal/cluster"
	"phishare/internal/job"
	"phishare/internal/runner"
	"phishare/internal/sim"
	"phishare/internal/units"
)

func vecadd() *Program {
	return VectorAdd(256, 2*units.Second, 120)
}

func TestVectorAddValidates(t *testing.T) {
	if err := vecadd().Validate(); err != nil {
		t.Fatalf("Fig. 1 program invalid: %v", err)
	}
}

func TestLowerVectorAdd(t *testing.T) {
	j, err := vecadd().Lower(7)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Validate(); err != nil {
		t.Fatalf("lowered job invalid: %v", err)
	}
	if j.Name != "vecadd#7" || j.Workload != "vecadd" {
		t.Errorf("identity %q/%q", j.Name, j.Workload)
	}
	// Shape: host, offload (with transfers), host.
	if len(j.Phases) != 3 {
		t.Fatalf("phases %d, want 3", len(j.Phases))
	}
	off := j.Phases[1]
	if off.Kind != job.OffloadPhase || off.Threads != 120 {
		t.Errorf("offload phase %+v", off)
	}
	if off.TransferIn != 768 { // a + b + c in
		t.Errorf("TransferIn %v, want 768", off.TransferIn)
	}
	if off.TransferOut != 256 { // c out
		t.Errorf("TransferOut %v, want 256", off.TransferOut)
	}
	if j.ActualPeakMem != 768 {
		t.Errorf("peak mem %v, want 768 (three arrays)", j.ActualPeakMem)
	}
	if j.Mem != 832 {
		t.Errorf("declared mem %v", j.Mem)
	}
}

func TestLoweredProgramRuns(t *testing.T) {
	// End-to-end: the Fig. 1 program executes on the simulated stack with
	// kernel + DMA time accounted (768 MB in + 256 MB out at 6 GB/s =
	// 128 + ~43 ms around a 2 s kernel, plus 1 s host).
	j, err := vecadd().Lower(1)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	clu := cluster.New(eng, cluster.Config{Nodes: 1, UseCosmic: true, Seed: 1})
	var end units.Tick
	var res runner.Result
	runner.Run(eng, clu.Units[0], j, func(r runner.Result) { res = r; end = eng.Now() })
	eng.Run()
	if res.Outcome != runner.Completed {
		t.Fatalf("outcome %v", res.Outcome)
	}
	want := units.Tick(500 + 128 + 2000 + 43 + 500)
	if end < want-2 || end > want+2 {
		t.Errorf("completed at %v, want ~%v (host + DMA + kernel)", end, want)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := map[string]*Program{
		"empty":           {Name: "x", DeclMem: 100, DeclThreads: 60},
		"no declarations": {Name: "x", Stmts: []Stmt{HostCompute{Duration: 1}}},
		"write before alloc": {Name: "x", DeclMem: 100, DeclThreads: 60,
			Stmts: []Stmt{WriteBuffer{Buffer: "a"}}},
		"read before alloc": {Name: "x", DeclMem: 100, DeclThreads: 60,
			Stmts: []Stmt{ReadBuffer{Buffer: "a"}}},
		"realloc": {Name: "x", DeclMem: 100, DeclThreads: 60,
			Stmts: []Stmt{Alloc{Buffer: "a", Size: 10}, Alloc{Buffer: "a", Size: 10}}},
		"zero buffer": {Name: "x", DeclMem: 100, DeclThreads: 60,
			Stmts: []Stmt{Alloc{Buffer: "a", Size: 0}}},
		"kernel too wide": {Name: "x", DeclMem: 100, DeclThreads: 60,
			Stmts: []Stmt{RunFunction{Name: "k", Duration: 1, Threads: 120}}},
		"zero kernel": {Name: "x", DeclMem: 100, DeclThreads: 60,
			Stmts: []Stmt{RunFunction{Name: "k", Duration: 0, Threads: 60}}},
		"zero host": {Name: "x", DeclMem: 100, DeclThreads: 60,
			Stmts: []Stmt{HostCompute{Duration: 0}}},
		"footprint over declaration": {Name: "x", DeclMem: 100, DeclThreads: 60,
			Stmts: []Stmt{Alloc{Buffer: "a", Size: 200}}},
	}
	for name, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestLowerRejectsDanglingIO(t *testing.T) {
	// A write with no following kernel is a compile error.
	p := &Program{Name: "x", DeclMem: 100, DeclThreads: 60, Stmts: []Stmt{
		Alloc{Buffer: "a", Size: 10},
		WriteBuffer{Buffer: "a"},
	}}
	if _, err := p.Lower(1); err == nil {
		t.Error("dangling write accepted")
	}
	// A read before any kernel is too.
	p2 := &Program{Name: "x", DeclMem: 100, DeclThreads: 60, Stmts: []Stmt{
		Alloc{Buffer: "a", Size: 10},
		ReadBuffer{Buffer: "a"},
		RunFunction{Name: "k", Duration: 1, Threads: 60},
	}}
	if _, err := p2.Lower(1); err == nil {
		t.Error("read-before-kernel accepted")
	}
	// No offload region at all.
	p3 := &Program{Name: "x", DeclMem: 100, DeclThreads: 60, Stmts: []Stmt{
		HostCompute{Duration: 1},
	}}
	if _, err := p3.Lower(1); err == nil {
		t.Error("offload-free program accepted")
	}
}

func TestMultiKernelTransfersAttachCorrectly(t *testing.T) {
	// Two kernels: the first gets a+b in and x out; the second gets c in
	// and y out.
	p := &Program{Name: "multi", DeclMem: 1000, DeclThreads: 60, Stmts: []Stmt{
		Alloc{Buffer: "a", Size: 100},
		Alloc{Buffer: "b", Size: 50},
		Alloc{Buffer: "c", Size: 25},
		WriteBuffer{Buffer: "a"},
		WriteBuffer{Buffer: "b"},
		RunFunction{Name: "k1", Duration: 1000, Threads: 60},
		ReadBuffer{Buffer: "a"},
		HostCompute{Duration: 500},
		WriteBuffer{Buffer: "c"},
		RunFunction{Name: "k2", Duration: 1000, Threads: 60},
		ReadBuffer{Buffer: "b"},
	}}
	j, err := p.Lower(1)
	if err != nil {
		t.Fatal(err)
	}
	var offloads []job.Phase
	for _, ph := range j.Phases {
		if ph.Kind == job.OffloadPhase {
			offloads = append(offloads, ph)
		}
	}
	if len(offloads) != 2 {
		t.Fatalf("offloads %d", len(offloads))
	}
	if offloads[0].TransferIn != 150 || offloads[0].TransferOut != 100 {
		t.Errorf("k1 transfers %v/%v, want 150/100", offloads[0].TransferIn, offloads[0].TransferOut)
	}
	if offloads[1].TransferIn != 25 || offloads[1].TransferOut != 50 {
		t.Errorf("k2 transfers %v/%v, want 25/50", offloads[1].TransferIn, offloads[1].TransferOut)
	}
}

func TestStmtStrings(t *testing.T) {
	p := vecadd()
	var all []string
	for _, s := range p.Stmts {
		all = append(all, s.String())
	}
	joined := strings.Join(all, "\n")
	for _, want := range []string{"alloc a", "write b", "run vecadd_kernel", "read c", "host"} {
		if !strings.Contains(joined, want) {
			t.Errorf("statement rendering missing %q:\n%s", want, joined)
		}
	}
}
