package trace

import (
	"bytes"
	"strings"
	"testing"

	"phishare/internal/job"
	"phishare/internal/obs"
	"phishare/internal/units"
)

// stream feeds phi-layer offload events for jobs named on first use
// through a span builder, as a device's trace would.
type stream struct {
	b    *obs.SpanBuilder
	jobs []*job.Job
}

func newStream() *stream { return &stream{b: obs.NewSpanBuilder()} }

func (s *stream) id(name string) int {
	for _, j := range s.jobs {
		if j.Name == name {
			return j.ID
		}
	}
	s.jobs = append(s.jobs, &job.Job{ID: len(s.jobs) + 1, Name: name})
	return len(s.jobs)
}

func (s *stream) start(at units.Tick, name string, threads units.Threads) {
	s.b.Consume(obs.Event{At: at, Layer: obs.LayerPhi, Kind: "offload_start",
		Fields: []obs.Field{obs.F("job", s.id(name)), obs.F("threads", threads)}})
}

func (s *stream) end(at units.Tick, name string, completed bool) {
	s.b.Consume(obs.Event{At: at, Layer: obs.LayerPhi, Kind: "offload_end",
		Fields: []obs.Field{obs.F("job", s.id(name)), obs.F("completed", completed)}})
}

// timeline is the timeline of everything fed so far.
func (s *stream) timeline() *Timeline { return New(s.b.Spans(), s.jobs) }

// csvRows returns the timeline's CSV data rows (header dropped).
func csvRows(t *testing.T, tl *Timeline) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := tl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSpace(buf.String()), "\n")[1:]
}

func TestTimelineBasics(t *testing.T) {
	s := newStream()
	s.start(0, "J1", 240)
	s.end(1000, "J1", true)
	s.start(1500, "J2", 120)
	s.end(2500, "J2", true)
	tl := s.timeline()
	if tl.Len() != 2 {
		t.Fatalf("intervals %d", tl.Len())
	}
	if rows := csvRows(t, tl); rows[0] != "J1,0,1000,240,true,completed" {
		t.Errorf("first row %q", rows[0])
	}
	if tl.end() != 2500 {
		t.Errorf("end = %v", tl.end())
	}
	if jobs := tl.jobs(); len(jobs) != 2 || jobs[0] != "J1" || jobs[1] != "J2" {
		t.Errorf("jobs = %v", jobs)
	}
}

// TestTimelineReadsSpanOffloads: a timeline drawn from spans built off a
// trace keeps the phi layer's offloads, names their jobs from its job set,
// and ignores everything else.
func TestTimelineReadsSpanOffloads(t *testing.T) {
	b := obs.NewSpanBuilder()
	phi := func(at units.Tick, kind string, fields ...obs.Field) {
		b.Consume(obs.Event{At: at, Layer: obs.LayerPhi, Kind: kind, Fields: fields})
	}
	phi(0, "offload_start", obs.F("device", "mic0"), obs.F("job", 7), obs.F("threads", units.Threads(240)))
	b.Consume(obs.Event{At: 100, Layer: obs.LayerCondor, Kind: "offload_start", Fields: []obs.Field{obs.F("job", 9)}})
	phi(200, "offload_start", obs.F("job", 9), obs.F("threads", units.Threads(60)))
	phi(300, "oom_kill", obs.F("job", 9))
	phi(1000, "offload_end", obs.F("job", 7), obs.F("completed", true))
	phi(1200, "offload_end", obs.F("job", 9), obs.F("completed", false))

	tl := New(b.Spans(), []*job.Job{{ID: 7, Name: "J1"}, {ID: 9, Name: "J2"}})
	want := []string{"J1,0,1000,240,true,completed", "J2,200,1200,60,false,aborted"}
	got := csvRows(t, tl)
	if len(got) != len(want) {
		t.Fatalf("rows %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestSameTickStartsKeepEventOrder: offloads starting on one tick keep the
// order of their offload_start events, not job-ID order.
func TestSameTickStartsKeepEventOrder(t *testing.T) {
	b := obs.NewSpanBuilder()
	for _, id := range []int{2, 1} {
		b.Consume(obs.Event{At: 500, Layer: obs.LayerPhi, Kind: "offload_start",
			Fields: []obs.Field{obs.F("job", id), obs.F("threads", units.Threads(60))}})
	}
	tl := New(b.Spans(), []*job.Job{{ID: 1, Name: "one"}, {ID: 2, Name: "two"}})
	rows := csvRows(t, tl)
	if len(rows) != 2 || !strings.HasPrefix(rows[0], "two,") || !strings.HasPrefix(rows[1], "one,") {
		t.Errorf("rows %q, want two before one", rows)
	}
}

func TestUnknownJobPanics(t *testing.T) {
	b := obs.NewSpanBuilder()
	b.Consume(obs.Event{Layer: obs.LayerPhi, Kind: "offload_start",
		Fields: []obs.Field{obs.F("job", 2), obs.F("threads", units.Threads(60))}})
	defer func() {
		if recover() == nil {
			t.Error("no panic on an offload of a job outside the job set")
		}
	}()
	New(b.Spans(), []*job.Job{{ID: 1, Name: "J1"}})
}

func TestInterleavedJobsTracked(t *testing.T) {
	s := newStream()
	s.start(0, "A", 120)
	s.start(500, "B", 120)
	s.end(1000, "A", true)
	s.end(1500, "B", true)
	rows := csvRows(t, s.timeline())
	if len(rows) != 2 || rows[0] != "A,0,1000,120,true,completed" || rows[1] != "B,500,1500,120,true,completed" {
		t.Errorf("rows %q", rows)
	}
}

func TestAbortedIntervalMarked(t *testing.T) {
	s := newStream()
	s.start(0, "A", 60)
	s.end(200, "A", false)
	if rows := csvRows(t, s.timeline()); rows[0] != "A,0,200,60,false,aborted" {
		t.Errorf("aborted interval row %q", rows[0])
	}
}

func TestWriteCSV(t *testing.T) {
	s := newStream()
	s.start(0, "A", 240)
	s.end(1000, "A", true)
	var buf bytes.Buffer
	if err := s.timeline().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv lines: %v", lines)
	}
	if lines[0] != "job,start_ms,end_ms,threads,completed,state" {
		t.Errorf("header %q", lines[0])
	}
	if lines[1] != "A,0,1000,240,true,completed" {
		t.Errorf("row %q", lines[1])
	}
}

// TestExportOpenInterval: an in-flight offload exports with End == -1 and an
// explicit "running" marker in the CSV, and an aborted one is labelled
// "aborted".
func TestExportOpenInterval(t *testing.T) {
	s := newStream()
	s.start(0, "done", 240)
	s.end(1000, "done", true)
	s.start(500, "dead", 60)
	s.end(800, "dead", false)
	s.start(2000, "flying", 120)

	var csvBuf bytes.Buffer
	if err := s.timeline().WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("csv lines: %v", lines)
	}
	if lines[2] != "dead,500,800,60,false,aborted" {
		t.Errorf("aborted row %q", lines[2])
	}
	if lines[3] != "flying,2000,-1,120,false,running" {
		t.Errorf("open row %q", lines[3])
	}
}

func TestRenderShape(t *testing.T) {
	s := newStream()
	s.start(0, "J1", 240)
	s.end(500, "J1", true)
	s.start(500, "J2", 120)
	s.end(1000, "J2", true)
	out := s.timeline().Render(40, 240)
	if !strings.Contains(out, "J1") || !strings.Contains(out, "J2") {
		t.Fatalf("render missing jobs:\n%s", out)
	}
	if !strings.Contains(out, "#") {
		t.Error("full-width offload not marked with #")
	}
	if !strings.Contains(out, "=") {
		t.Error("partial offload not marked with =")
	}
	lines := strings.Split(out, "\n")
	if !strings.HasPrefix(lines[0], "J1") {
		t.Errorf("row order wrong:\n%s", out)
	}
}

func TestRenderEmpty(t *testing.T) {
	s := newStream()
	if out := s.timeline().Render(40, 240); !strings.Contains(out, "no offload activity") {
		t.Errorf("empty render: %q", out)
	}
}

func TestTimeline(t *testing.T) {
	s := newStream()
	// 240 threads for the first half, 120 for the second.
	s.start(0, "A", 240)
	s.end(1000, "A", true)
	s.start(1000, "B", 120)
	s.end(2000, "B", true)
	tl := s.timeline().Occupancy(4, 2000)
	want := []float64{240, 240, 120, 120}
	for i := range want {
		if diff := tl[i] - want[i]; diff > 0.01 || diff < -0.01 {
			t.Errorf("bucket %d = %v, want %v", i, tl[i], want[i])
		}
	}
}

func TestTimelinePartialOverlap(t *testing.T) {
	s := newStream()
	// 100 threads over [0, 500) in a 1000-wide bucket: average 50.
	s.start(0, "A", 100)
	s.end(500, "A", true)
	tl := s.timeline().Occupancy(1, 1000)
	if diff := tl[0] - 50; diff > 0.01 || diff < -0.01 {
		t.Errorf("bucket = %v, want 50", tl[0])
	}
}

func TestTimelineDegenerate(t *testing.T) {
	s := newStream()
	if s.timeline().Occupancy(0, 100) != nil || s.timeline().Occupancy(4, 0) != nil {
		t.Error("degenerate timeline not nil")
	}
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 120, 240}, 240)
	if len([]rune(s)) != 3 {
		t.Fatalf("sparkline %q", s)
	}
	runes := []rune(s)
	if runes[0] != ' ' || runes[2] != '█' {
		t.Errorf("sparkline extremes %q", s)
	}
	if Sparkline(nil, 240) != "" || Sparkline([]float64{1}, 0) != "" {
		t.Error("degenerate sparkline not empty")
	}
}

func TestSparklineClamps(t *testing.T) {
	s := []rune(Sparkline([]float64{500, -5}, 240))
	if s[0] != '█' || s[1] != ' ' {
		t.Errorf("clamping wrong: %q", string(s))
	}
}

func TestWriteSVG(t *testing.T) {
	s := newStream()
	s.start(0, "J1", 240)
	s.end(3000, "J1", true)
	s.start(1000, "J2", 120)
	s.end(2000, "J2", false) // aborted
	var buf bytes.Buffer
	if err := s.timeline().WriteSVG(&buf, 240); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"<svg", "</svg>", "J1", "J2", "#d62728", "<title>"} {
		if !strings.Contains(out, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	if strings.Count(out, "<rect") < 3 { // background + 2 bars
		t.Errorf("SVG rect count too low:\n%s", out)
	}
}

// TestWriteSVGOpenInterval: a mid-run snapshot with an in-flight offload
// renders the open bar (dashed, to the chart edge) instead of dropping it.
func TestWriteSVGOpenInterval(t *testing.T) {
	s := newStream()
	s.start(0, "closed", 240)
	s.end(3000, "closed", true)
	s.start(4000, "inflight", 120) // still running, past the last close
	var buf bytes.Buffer
	if err := s.timeline().WriteSVG(&buf, 240); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"inflight", "still running", `stroke-dasharray`} {
		if !strings.Contains(out, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	if strings.Count(out, "<rect") < 3 { // background + closed bar + open bar
		t.Errorf("open interval dropped:\n%s", out)
	}
	// The axis must stretch to cover the open interval's start.
	if !strings.Contains(out, "4.0 s") && !strings.Contains(out, "(2 jobs, 4.0 s)") {
		t.Errorf("axis does not cover open interval:\n%s", out)
	}

	// Open-only timeline: must still render, not emit the empty placeholder.
	s2 := newStream()
	s2.start(0, "solo", 60)
	var buf2 bytes.Buffer
	if err := s2.timeline().WriteSVG(&buf2, 240); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf2.String(), "no offload activity") {
		t.Error("open-only timeline rendered as empty")
	}
	if !strings.Contains(buf2.String(), "solo") {
		t.Error("open-only bar missing")
	}
}

func TestWriteSVGEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := newStream().timeline().WriteSVG(&buf, 240); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no offload activity") {
		t.Errorf("empty SVG: %q", buf.String())
	}
}

func TestSVGEscapesJobNames(t *testing.T) {
	s := newStream()
	s.start(0, `evil<>&"job`, 60)
	s.end(100, `evil<>&"job`, true)
	var buf bytes.Buffer
	if err := s.timeline().WriteSVG(&buf, 240); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "evil<>") {
		t.Error("job name not escaped in SVG")
	}
}
