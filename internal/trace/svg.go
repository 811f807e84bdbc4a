package trace

import (
	"fmt"
	"io"
	"strings"

	"phishare/internal/units"
)

// WriteSVG renders the offload intervals as a self-contained SVG Gantt
// chart: one row per job, a bar per offload, bar height proportional to
// thread width. The visual analogue of the paper's Figs. 2–3, viewable in
// any browser.
func (t *Timeline) WriteSVG(w io.Writer, hwThreads units.Threads) error {
	const (
		width     = 900
		rowHeight = 28
		barMax    = 22 // tallest bar, for a full-width offload
		leftPad   = 110
		topPad    = 30
		bottomPad = 30
	)
	jobs := t.jobs()
	// The axis must cover open intervals too: a snapshot mid-run has bars
	// with no end yet, which render to the right edge of the chart.
	end := t.end()
	for _, o := range t.offloads {
		if o.Open && o.Start > end {
			end = o.Start
		}
	}
	if len(jobs) == 0 {
		_, err := fmt.Fprint(w, emptySVG)
		return err
	}
	if end == 0 {
		end = units.Second // only open intervals at t=0: nominal axis span
	}
	rows := map[string]int{}
	for i, name := range jobs {
		rows[name] = i
	}
	height := topPad + rowHeight*len(jobs) + bottomPad
	scale := float64(width-leftPad-10) / float64(end)

	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif" font-size="11">`+"\n", width, height)
	fmt.Fprintf(&sb, `<rect width="%d" height="%d" fill="white"/>`+"\n", width, height)
	fmt.Fprintf(&sb, `<text x="%d" y="18" font-size="13">Coprocessor offload timeline (%d jobs, %.1f s)</text>`+"\n",
		leftPad, len(jobs), end.Seconds())

	// Row guides and labels.
	for i, name := range jobs {
		y := topPad + i*rowHeight
		fmt.Fprintf(&sb, `<text x="5" y="%d">%s</text>`+"\n", y+barMax-6, escapeXML(name))
		fmt.Fprintf(&sb, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#eee"/>`+"\n",
			leftPad, y+barMax, width-10, y+barMax)
	}

	// Bars, in start order.
	for _, o := range t.offloads {
		row := rows[o.job]
		threads := units.Threads(o.Threads)
		frac := float64(threads) / float64(hwThreads)
		if frac > 1 {
			frac = 1
		}
		h := int(frac * barMax)
		if h < 3 {
			h = 3
		}
		x := leftPad + int(float64(o.Start)*scale)
		y := topPad + row*rowHeight + (barMax - h)
		if o.Open {
			// Still-running offload: bar runs to the chart edge, drawn
			// half-transparent with a dashed outline so a mid-run snapshot
			// is visually distinct from a closed bar.
			bw := width - 10 - x
			if bw < 1 {
				bw = 1
			}
			fmt.Fprintf(&sb,
				`<rect x="%d" y="%d" width="%d" height="%d" fill="%s" fill-opacity="0.45" stroke="%s" stroke-dasharray="4,3"><title>%s: %v threads, started %.2fs (still running)</title></rect>`+"\n",
				x, y, bw, h, colorFor(row), colorFor(row), escapeXML(o.job), threads, o.Start.Seconds())
			continue
		}
		bw := int(float64(o.End-o.Start) * scale)
		if bw < 1 {
			bw = 1
		}
		fill := colorFor(row)
		if !o.Completed {
			fill = "#d62728" // aborted offloads in red
		}
		fmt.Fprintf(&sb,
			`<rect x="%d" y="%d" width="%d" height="%d" fill="%s"><title>%s: %v threads, %.2fs-%.2fs</title></rect>`+"\n",
			x, y, bw, h, fill, escapeXML(o.job), threads, o.Start.Seconds(), o.End.Seconds())
	}

	// Time axis.
	axisY := topPad + rowHeight*len(jobs) + 8
	fmt.Fprintf(&sb, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#444"/>`+"\n", leftPad, axisY, width-10, axisY)
	for i := 0; i <= 6; i++ {
		t := float64(end) * float64(i) / 6
		x := leftPad + int(t*scale)
		fmt.Fprintf(&sb, `<text x="%d" y="%d" text-anchor="middle" fill="#444">%.0fs</text>`+"\n",
			x, axisY+14, units.Tick(t).Seconds())
	}
	sb.WriteString("</svg>\n")
	_, err := io.WriteString(w, sb.String())
	return err
}

const emptySVG = `<svg xmlns="http://www.w3.org/2000/svg" width="300" height="40"><text x="10" y="25">no offload activity</text></svg>` + "\n"

// colorFor cycles a small colorblind-safe palette by row.
func colorFor(row int) string {
	palette := []string{"#1f77b4", "#2ca02c", "#9467bd", "#8c564b", "#e377c2", "#17becf", "#bcbd22", "#7f7f7f"}
	return palette[row%len(palette)]
}

func escapeXML(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
