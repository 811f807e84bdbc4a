// Package trace records device offload activity and renders the coprocessor
// usage profiles of the paper's Figs. 2–3: per-job timelines showing when
// each job occupies the Xeon Phi, how wide its offloads are, and how
// concurrent jobs interleave.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"phishare/internal/job"
	"phishare/internal/obs"
	"phishare/internal/units"
)

// Interval is one offload's occupancy of a device.
type Interval struct {
	Job       string
	Start     units.Tick
	End       units.Tick // -1 while still running
	Threads   units.Threads
	Completed bool
}

// Duration of the interval; zero for still-open intervals.
func (iv Interval) Duration() units.Tick {
	if iv.End < iv.Start {
		return 0
	}
	return iv.End - iv.Start
}

// Open reports whether the offload is still running (no end recorded).
func (iv Interval) Open() bool { return iv.End < 0 }

// State labels the interval: "running" while open, then "completed" or
// "aborted". This is the explicit open-end marker in the CSV export —
// consumers should not have to know that End == -1 means in flight.
func (iv Interval) State() string {
	switch {
	case iv.Open():
		return "running"
	case iv.Completed:
		return "completed"
	}
	return "aborted"
}

// Recorder collects offload intervals. It is an obs.EventSink: register it
// on the trace of the devices it should watch (one recorder can serve a
// whole cluster) and it keeps the phi layer's offload_start/offload_end
// events. Events name jobs by ID; the recorder names them from the job set
// it was built with.
type Recorder struct {
	names     map[int]string
	intervals []Interval
	open      map[string]int // job name -> index of open interval
}

// NewRecorder returns an empty recorder for offloads of jobs.
func NewRecorder(jobs []*job.Job) *Recorder {
	r := &Recorder{names: make(map[int]string, len(jobs)), open: map[string]int{}}
	for _, j := range jobs {
		r.names[j.ID] = j.Name
	}
	return r
}

// Consume implements obs.EventSink.
func (r *Recorder) Consume(e obs.Event) {
	if e.Layer != obs.LayerPhi || (e.Kind != "offload_start" && e.Kind != "offload_end") {
		return
	}
	id, _ := e.Field("job").(int)
	name, ok := r.names[id]
	if !ok {
		panic(fmt.Sprintf("trace: offload of job %d, which is not in the recorder's job set", id))
	}
	if e.Kind == "offload_start" {
		threads, _ := e.Field("threads").(units.Threads)
		r.start(e.At, name, threads)
		return
	}
	completed, _ := e.Field("completed").(bool)
	r.end(e.At, name, completed)
}

// start opens an interval when a kernel begins occupying threads.
func (r *Recorder) start(now units.Tick, jobName string, threads units.Threads) {
	if _, dup := r.open[jobName]; dup {
		panic("trace: overlapping offloads for job " + jobName)
	}
	r.open[jobName] = len(r.intervals)
	r.intervals = append(r.intervals, Interval{
		Job: jobName, Start: now, End: -1, Threads: threads,
	})
}

// end closes a job's open interval when its kernel completes
// (completed=true) or its process dies mid-offload (completed=false).
func (r *Recorder) end(now units.Tick, jobName string, completed bool) {
	idx, ok := r.open[jobName]
	if !ok {
		panic("trace: offload end without start for job " + jobName)
	}
	delete(r.open, jobName)
	r.intervals[idx].End = now
	r.intervals[idx].Completed = completed
}

// Intervals returns the recorded intervals in start order.
func (r *Recorder) Intervals() []Interval {
	out := make([]Interval, len(r.intervals))
	copy(out, r.intervals)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Jobs returns the distinct job names in first-appearance order.
func (r *Recorder) Jobs() []string {
	seen := map[string]bool{}
	var names []string
	for _, iv := range r.intervals {
		if !seen[iv.Job] {
			seen[iv.Job] = true
			names = append(names, iv.Job)
		}
	}
	return names
}

// End returns the latest interval end (0 if none closed).
func (r *Recorder) End() units.Tick {
	var end units.Tick
	for _, iv := range r.intervals {
		if iv.End > end {
			end = iv.End
		}
	}
	return end
}

// WriteCSV emits the intervals as CSV with a header row.
func (r *Recorder) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"job", "start_ms", "end_ms", "threads", "completed", "state"}); err != nil {
		return err
	}
	for _, iv := range r.Intervals() {
		rec := []string{
			iv.Job,
			strconv.FormatInt(int64(iv.Start), 10),
			strconv.FormatInt(int64(iv.End), 10),
			strconv.Itoa(int(iv.Threads)),
			strconv.FormatBool(iv.Completed),
			iv.State(),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Render draws an ASCII timeline like the paper's Figs. 2–3: one row per
// job, '#' where the job's offload occupies the device (full width),
// '=' for partial-width offloads, '.' where the job exists but runs on the
// host. width is the number of character cells.
func (r *Recorder) Render(width int, hwThreads units.Threads) string {
	if width <= 0 {
		width = 80
	}
	end := r.End()
	if end == 0 {
		return "(no offload activity)\n"
	}
	var sb strings.Builder
	cell := float64(end) / float64(width)
	for _, jobName := range r.Jobs() {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		for _, iv := range r.intervals {
			if iv.Job != jobName || iv.End < 0 {
				continue
			}
			mark := byte('=')
			if iv.Threads*2 > hwThreads {
				mark = '#'
			}
			from := int(float64(iv.Start) / cell)
			to := int(float64(iv.End) / cell)
			if to >= width {
				to = width - 1
			}
			for i := from; i <= to; i++ {
				row[i] = mark
			}
		}
		fmt.Fprintf(&sb, "%-12s |%s|\n", jobName, row)
	}
	fmt.Fprintf(&sb, "%-12s  0%*s\n", "", width-1, end)
	fmt.Fprintf(&sb, "('#' offload >50%% of threads, '=' partial offload, '.' host/idle)\n")
	return sb.String()
}

// Timeline bins average occupied threads over [0, end) into n buckets.
// Open intervals are ignored. Useful for rendering cluster activity over a
// run (see Sparkline).
func (r *Recorder) Timeline(n int, end units.Tick) []float64 {
	if n <= 0 || end <= 0 {
		return nil
	}
	out := make([]float64, n)
	width := float64(end) / float64(n)
	for _, iv := range r.intervals {
		if iv.End < iv.Start {
			continue
		}
		lo, hi := float64(iv.Start), float64(iv.End)
		if hi > float64(end) {
			hi = float64(end)
		}
		first := int(lo / width)
		last := int(hi / width)
		if last >= n {
			last = n - 1
		}
		for b := first; b <= last; b++ {
			bLo, bHi := float64(b)*width, float64(b+1)*width
			overlap := min64(hi, bHi) - max64(lo, bLo)
			if overlap > 0 {
				out[b] += float64(iv.Threads) * overlap / width
			}
		}
	}
	return out
}

func min64(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Sparkline renders values as a Unicode bar chart scaled to max (values
// above max clamp to the tallest bar). Empty input yields an empty string.
func Sparkline(vals []float64, max float64) string {
	if len(vals) == 0 || max <= 0 {
		return ""
	}
	levels := []rune(" ▁▂▃▄▅▆▇█")
	var sb strings.Builder
	for _, v := range vals {
		idx := int(v / max * float64(len(levels)-1))
		if idx < 0 {
			idx = 0
		}
		if idx >= len(levels) {
			idx = len(levels) - 1
		}
		sb.WriteRune(levels[idx])
	}
	return sb.String()
}
