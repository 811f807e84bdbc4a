// Package trace renders the coprocessor usage profiles of the paper's
// Figs. 2–3: per-job timelines showing when each job occupies the Xeon Phi,
// how wide its offloads are, and how concurrent jobs interleave. It draws
// the offloads of obs job spans; obs.SpanBuilder is what pairs the phi
// layer's offload_start/offload_end events into those intervals.
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

// Timeline is the offload activity of a set of job spans, one row per job.
type Timeline struct {
	// Spans are the job spans the timeline draws.
	Spans []*obs.Span
	// offloads holds every span offload, named after its job, in stream
	// order (Offload.Seq). The stream is time-ordered, so this is also
	// start order, with same-tick starts in event order.
	offloads []offload
}

type offload struct {
	job string
	obs.Offload
}

// New returns the timeline of spans. Spans identify jobs by ID; the
// timeline names them from jobs, and panics on an offload of a job outside
// that set.
func New(spans []*obs.Span, jobs []*job.Job) *Timeline {
	names := make(map[int64]string, len(jobs))
	for _, j := range jobs {
		names[int64(j.ID)] = j.Name
	}
	t := &Timeline{Spans: spans}
	for _, s := range spans {
		for _, a := range s.Attempts {
			for _, o := range a.Offloads {
				name, ok := names[s.Job]
				if !ok {
					panic(fmt.Sprintf("trace: offload of job %d, which is not in the timeline's job set", s.Job))
				}
				t.offloads = append(t.offloads, offload{name, o})
			}
		}
	}
	sort.Slice(t.offloads, func(i, j int) bool { return t.offloads[i].Seq < t.offloads[j].Seq })
	return t
}

// Len is the number of offload intervals.
func (t *Timeline) Len() int { return len(t.offloads) }

// state labels an offload: "running" while open, then "completed" or
// "aborted". This is the explicit open-end marker in the CSV export —
// consumers should not have to know that End == -1 means in flight.
func state(o obs.Offload) string {
	switch {
	case o.Open:
		return "running"
	case o.Completed:
		return "completed"
	}
	return "aborted"
}

// jobs returns the distinct job names in first-offload order.
func (t *Timeline) jobs() []string {
	seen := map[string]bool{}
	var names []string
	for _, o := range t.offloads {
		if !seen[o.job] {
			seen[o.job] = true
			names = append(names, o.job)
		}
	}
	return names
}

// end returns the latest offload end (0 if none closed).
func (t *Timeline) end() units.Tick {
	var end units.Tick
	for _, o := range t.offloads {
		if o.End > end {
			end = o.End
		}
	}
	return end
}

// WriteCSV emits the intervals as CSV with a header row.
func (t *Timeline) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"job", "start_ms", "end_ms", "threads", "completed", "state"}); err != nil {
		return err
	}
	for _, o := range t.offloads {
		rec := []string{
			o.job,
			strconv.FormatInt(int64(o.Start), 10),
			strconv.FormatInt(int64(o.End), 10),
			strconv.FormatInt(o.Threads, 10),
			strconv.FormatBool(o.Completed),
			state(o.Offload),
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
func (t *Timeline) Render(width int, hwThreads units.Threads) string {
	if width <= 0 {
		width = 80
	}
	end := t.end()
	if end == 0 {
		return "(no offload activity)\n"
	}
	var sb strings.Builder
	cell := float64(end) / float64(width)
	for _, jobName := range t.jobs() {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		for _, o := range t.offloads {
			if o.job != jobName || o.Open {
				continue
			}
			mark := byte('=')
			if units.Threads(o.Threads)*2 > hwThreads {
				mark = '#'
			}
			from := int(float64(o.Start) / cell)
			to := int(float64(o.End) / cell)
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

// Occupancy bins average occupied threads over [0, end) into n buckets.
// Open intervals are ignored. Useful for rendering cluster activity over a
// run (see Sparkline).
func (t *Timeline) Occupancy(n int, end units.Tick) []float64 {
	if n <= 0 || end <= 0 {
		return nil
	}
	out := make([]float64, n)
	width := float64(end) / float64(n)
	for _, o := range t.offloads {
		if o.Open {
			continue
		}
		lo, hi := float64(o.Start), float64(o.End)
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
			overlap := min(hi, bHi) - max(lo, bLo)
			if overlap > 0 {
				out[b] += float64(o.Threads) * overlap / width
			}
		}
	}
	return out
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
