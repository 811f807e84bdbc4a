package trace

import (
	"bytes"
	"strings"
	"testing"

	"phishare/internal/job"
	"phishare/internal/obs"
	"phishare/internal/units"
)

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder(nil)
	r.start(0, "J1", 240)
	r.end(1000, "J1", true)
	r.start(1500, "J2", 120)
	r.end(2500, "J2", true)
	ivs := r.Intervals()
	if len(ivs) != 2 {
		t.Fatalf("intervals %d", len(ivs))
	}
	if ivs[0].Job != "J1" || ivs[0].Duration() != 1000 {
		t.Errorf("first interval %+v", ivs[0])
	}
	if r.End() != 2500 {
		t.Errorf("End = %v", r.End())
	}
	if jobs := r.Jobs(); len(jobs) != 2 || jobs[0] != "J1" || jobs[1] != "J2" {
		t.Errorf("Jobs = %v", jobs)
	}
}

// TestRecorderConsumesOffloadEvents: fed a trace, the recorder keeps the
// phi layer's offload events, names their jobs from its job set, and
// ignores everything else.
func TestRecorderConsumesOffloadEvents(t *testing.T) {
	r := NewRecorder([]*job.Job{{ID: 7, Name: "J1"}, {ID: 9, Name: "J2"}})
	phi := func(at units.Tick, kind string, fields ...obs.Field) {
		r.Consume(obs.Event{At: at, Layer: obs.LayerPhi, Kind: kind, Fields: fields})
	}
	phi(0, "offload_start", obs.F("device", "mic0"), obs.F("job", 7), obs.F("threads", units.Threads(240)))
	r.Consume(obs.Event{At: 100, Layer: obs.LayerCondor, Kind: "offload_start", Fields: []obs.Field{obs.F("job", 9)}})
	phi(200, "offload_start", obs.F("job", 9), obs.F("threads", units.Threads(60)))
	phi(300, "oom_kill", obs.F("job", 9))
	phi(1000, "offload_end", obs.F("job", 7), obs.F("completed", true))
	phi(1200, "offload_end", obs.F("job", 9), obs.F("completed", false))

	want := []Interval{
		{Job: "J1", Start: 0, End: 1000, Threads: 240, Completed: true},
		{Job: "J2", Start: 200, End: 1200, Threads: 60},
	}
	got := r.Intervals()
	if len(got) != len(want) {
		t.Fatalf("intervals %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("interval %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestRecorderUnknownJobPanics(t *testing.T) {
	r := NewRecorder([]*job.Job{{ID: 1, Name: "J1"}})
	defer func() {
		if recover() == nil {
			t.Error("no panic on an offload of a job outside the job set")
		}
	}()
	r.Consume(obs.Event{Layer: obs.LayerPhi, Kind: "offload_start",
		Fields: []obs.Field{obs.F("job", 2), obs.F("threads", units.Threads(60))}})
}

func TestInterleavedJobsTracked(t *testing.T) {
	r := NewRecorder(nil)
	r.start(0, "A", 120)
	r.start(500, "B", 120)
	r.end(1000, "A", true)
	r.end(1500, "B", true)
	ivs := r.Intervals()
	if ivs[0].Job != "A" || ivs[1].Job != "B" {
		t.Errorf("intervals %v", ivs)
	}
	if ivs[1].Start != 500 || ivs[1].End != 1500 {
		t.Errorf("B interval %+v", ivs[1])
	}
}

func TestAbortedIntervalMarked(t *testing.T) {
	r := NewRecorder(nil)
	r.start(0, "A", 60)
	r.end(200, "A", false)
	if r.Intervals()[0].Completed {
		t.Error("aborted interval marked completed")
	}
}

func TestOverlappingSameJobPanics(t *testing.T) {
	r := NewRecorder(nil)
	r.start(0, "A", 60)
	defer func() {
		if recover() == nil {
			t.Error("no panic on overlapping offloads")
		}
	}()
	r.start(10, "A", 60)
}

func TestEndWithoutStartPanics(t *testing.T) {
	r := NewRecorder(nil)
	defer func() {
		if recover() == nil {
			t.Error("no panic on end without start")
		}
	}()
	r.end(10, "A", true)
}

func TestWriteCSV(t *testing.T) {
	r := NewRecorder(nil)
	r.start(0, "A", 240)
	r.end(1000, "A", true)
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
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
	r := NewRecorder(nil)
	r.start(0, "done", 240)
	r.end(1000, "done", true)
	r.start(500, "dead", 60)
	r.end(800, "dead", false)
	r.start(2000, "flying", 120)

	var csvBuf bytes.Buffer
	if err := r.WriteCSV(&csvBuf); err != nil {
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
	r := NewRecorder(nil)
	r.start(0, "J1", 240)
	r.end(500, "J1", true)
	r.start(500, "J2", 120)
	r.end(1000, "J2", true)
	out := r.Render(40, 240)
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
	r := NewRecorder(nil)
	if out := r.Render(40, 240); !strings.Contains(out, "no offload activity") {
		t.Errorf("empty render: %q", out)
	}
}

func TestDurationOpenInterval(t *testing.T) {
	iv := Interval{Start: 100, End: -1}
	if iv.Duration() != 0 {
		t.Errorf("open interval duration %v", iv.Duration())
	}
}

func TestTimeline(t *testing.T) {
	r := NewRecorder(nil)
	// 240 threads for the first half, 120 for the second.
	r.start(0, "A", 240)
	r.end(1000, "A", true)
	r.start(1000, "B", 120)
	r.end(2000, "B", true)
	tl := r.Timeline(4, 2000)
	want := []float64{240, 240, 120, 120}
	for i := range want {
		if diff := tl[i] - want[i]; diff > 0.01 || diff < -0.01 {
			t.Errorf("bucket %d = %v, want %v", i, tl[i], want[i])
		}
	}
}

func TestTimelinePartialOverlap(t *testing.T) {
	r := NewRecorder(nil)
	// 100 threads over [0, 500) in a 1000-wide bucket: average 50.
	r.start(0, "A", 100)
	r.end(500, "A", true)
	tl := r.Timeline(1, 1000)
	if diff := tl[0] - 50; diff > 0.01 || diff < -0.01 {
		t.Errorf("bucket = %v, want 50", tl[0])
	}
}

func TestTimelineDegenerate(t *testing.T) {
	r := NewRecorder(nil)
	if r.Timeline(0, 100) != nil || r.Timeline(4, 0) != nil {
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
	r := NewRecorder(nil)
	r.start(0, "J1", 240)
	r.end(3000, "J1", true)
	r.start(1000, "J2", 120)
	r.end(2000, "J2", false) // aborted
	var buf bytes.Buffer
	if err := r.WriteSVG(&buf, 240); err != nil {
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
	r := NewRecorder(nil)
	r.start(0, "closed", 240)
	r.end(3000, "closed", true)
	r.start(4000, "inflight", 120) // still running, past the last close
	var buf bytes.Buffer
	if err := r.WriteSVG(&buf, 240); err != nil {
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

	// Open-only recorder: must still render, not emit the empty placeholder.
	r2 := NewRecorder(nil)
	r2.start(0, "solo", 60)
	var buf2 bytes.Buffer
	if err := r2.WriteSVG(&buf2, 240); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf2.String(), "no offload activity") {
		t.Error("open-only recorder rendered as empty")
	}
	if !strings.Contains(buf2.String(), "solo") {
		t.Error("open-only bar missing")
	}
}

func TestWriteSVGEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := NewRecorder(nil).WriteSVG(&buf, 240); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no offload activity") {
		t.Errorf("empty SVG: %q", buf.String())
	}
}

func TestSVGEscapesJobNames(t *testing.T) {
	r := NewRecorder(nil)
	r.start(0, `evil<>&"job`, 60)
	r.end(100, `evil<>&"job`, true)
	var buf bytes.Buffer
	if err := r.WriteSVG(&buf, 240); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "evil<>") {
		t.Error("job name not escaped in SVG")
	}
}
