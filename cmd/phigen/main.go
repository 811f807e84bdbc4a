// Command phigen generates and inspects workload sets: Table I application
// instances, the Fig. 7 synthetic distributions, and diurnal arrival
// streams. It prints a summary table, an ASCII resource histogram for
// synthetics, and can export the set as CSV or replayable JSON.
//
// Generation is streaming end to end: jobs come off a workload.Source one
// at a time and flow through validation, the summary accumulators, the
// histogram and the exporters without the set ever being resident — a
// -jobs 1000000 -json day.json run needs megabytes, not gigabytes.
//
// Usage:
//
//	phigen -workload tableI -jobs 1000
//	phigen -workload high-skew -jobs 400 -csv jobs.csv
//	phigen -workload uniform -diurnal -jobs 100000 -burst 6 -tenants 100 -json day.json
//
// With -diurnal, arrivals follow a day-night Poisson rate curve over
// -horizon-s simulated seconds (burst windows via -burst, a Zipf tenant
// population via -tenants) and the CSV's arrival_ms/tenant columns are
// populated; without it every job arrives at t=0 under the anonymous
// tenant.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"

	"phishare/internal/job"
	"phishare/internal/rng"
	"phishare/internal/units"
	"phishare/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("phigen: ")

	var (
		wl       = flag.String("workload", "tableI", "workload: tableI, uniform, normal, low-skew, high-skew")
		njobs    = flag.Int("jobs", 400, "number of jobs")
		seed     = flag.Int64("seed", 42, "random seed")
		diurnal  = flag.Bool("diurnal", false, "generate diurnal Poisson arrivals instead of a t=0 batch (synthetic workloads only)")
		burst    = flag.Float64("burst", 0, "expected traffic bursts per day (with -diurnal)")
		tenants  = flag.Int("tenants", 1, "Zipf-skewed tenant population size (with -diurnal)")
		horizonS = flag.Int64("horizon-s", 86400, "arrival horizon in simulated seconds (with -diurnal)")
		out      = flag.String("csv", "", "export a job summary as CSV to this file")
		jsonOut  = flag.String("json", "", "export the full job set (with phase profiles) as JSON; replayable via phisched -input")
	)
	flag.Parse()

	var src workload.Source
	var hist *workload.Histogram
	switch {
	case *wl == "tableI":
		if *diurnal {
			log.Fatal("-diurnal needs a synthetic workload (uniform, normal, low-skew, high-skew)")
		}
		src = workload.FromSlice(job.GenerateTableOneSet(*njobs, rng.New(*seed).Fork("tableI")))
	default:
		d, err := workload.ParseDistribution(*wl)
		if err != nil {
			log.Fatal(err)
		}
		cfg := workload.Config{Dist: d, N: *njobs, Seed: *seed}
		if *diurnal {
			dc := workload.DiurnalConfig{
				N:          *njobs,
				Seed:       *seed,
				Horizon:    units.Tick(*horizonS) * units.Second,
				Day:        units.Tick(*horizonS) * units.Second,
				BurstCount: *burst,
				Tenants:    *tenants,
				Jobs:       workload.Config{Dist: d},
			}
			src = workload.NewDiurnal(dc)
			// The diurnal generator's thread ceiling differs (224, to fit
			// the smallest heterogeneous device); the histogram only reads
			// the memory axis, which the two generators share.
		} else {
			src = workload.FromSlice(workload.Generate(cfg))
		}
		hist = workload.NewHistogram(d, workload.Config{Dist: d}, 10)
	}

	var csvw *csv.Writer
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		csvw = csv.NewWriter(f)
		if err := csvw.Write([]string{"id", "name", "workload", "mem_mb", "threads",
			"actual_peak_mb", "phases", "seq_ms", "offload_ms", "arrival_ms", "tenant"}); err != nil {
			log.Fatal(err)
		}
	}
	var jw *job.StreamWriter
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			log.Fatal(err)
		}
		jw, err = job.NewStreamWriter(f)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := jw.Close(); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
			log.Printf("wrote %d jobs (full profiles) to %s", jw.Count(), *jsonOut)
		}()
	}

	// The single pass: every consumer is incremental.
	sum := newSummary()
	for {
		a, ok := src.Next()
		if !ok {
			break
		}
		if err := a.Job.Validate(); err != nil {
			log.Fatalf("generated job %d invalid: %v", a.Job.ID, err)
		}
		sum.add(a)
		if hist != nil {
			hist.Observe(a.Job)
		}
		if csvw != nil {
			rec := []string{
				strconv.Itoa(a.Job.ID), a.Job.Name, a.Job.Workload,
				strconv.Itoa(int(a.Job.Mem)), strconv.Itoa(int(a.Job.Threads)),
				strconv.Itoa(int(a.Job.ActualPeakMem)), strconv.Itoa(len(a.Job.Phases)),
				strconv.FormatInt(int64(a.Job.SequentialTime()), 10),
				strconv.FormatInt(int64(a.Job.OffloadTime()), 10),
				strconv.FormatInt(int64(a.At), 10), a.Tenant,
			}
			if err := csvw.Write(rec); err != nil {
				log.Fatal(err)
			}
		}
		if jw != nil {
			if err := jw.Write(a.Job); err != nil {
				log.Fatal(err)
			}
		}
	}

	sum.print(*diurnal)
	if hist != nil {
		fmt.Printf("\nresource-level histogram (mean %.2f):\n", hist.MeanLevel())
		max := 1
		for _, c := range hist.Bins {
			if c > max {
				max = c
			}
		}
		for i, c := range hist.Bins {
			fmt.Printf("  %.1f-%.1f |%-40s| %d\n", hist.Edges[i], hist.Edges[i+1], bar(c, max), c)
		}
	}
	if csvw != nil {
		csvw.Flush()
		if err := csvw.Error(); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %d jobs to %s", sum.total, *out)
	}
}

func bar(c, max int) string {
	n := c * 40 / max
	b := make([]byte, n)
	for i := range b {
		b[i] = '#'
	}
	return string(b)
}

// summary accumulates the per-workload table and arrival statistics one
// arrival at a time.
type summary struct {
	byWl  map[string]*wlAgg
	order []string

	total      int
	seqTotal   units.Tick
	firstAt    units.Tick
	lastAt     units.Tick
	byTenant   map[string]int
	maxPending int
}

type wlAgg struct {
	count   int
	mem     units.MB
	threads units.Threads
	seq     units.Tick
}

func newSummary() *summary {
	return &summary{byWl: map[string]*wlAgg{}, byTenant: map[string]int{}}
}

func (s *summary) add(a workload.Arrival) {
	j := a.Job
	w, ok := s.byWl[j.Workload]
	if !ok {
		w = &wlAgg{}
		s.byWl[j.Workload] = w
		s.order = append(s.order, j.Workload)
	}
	w.count++
	w.mem += j.Mem
	w.threads += j.Threads
	w.seq += j.SequentialTime()

	if s.total == 0 {
		s.firstAt = a.At
	}
	s.total++
	s.lastAt = a.At
	s.seqTotal += j.SequentialTime()
	if a.Tenant != "" {
		s.byTenant[a.Tenant]++
	}
}

func (s *summary) print(diurnal bool) {
	fmt.Printf("%-10s %6s %10s %10s %12s\n", "workload", "count", "avg mem", "avg thr", "avg seq time")
	for _, name := range s.order {
		a := s.byWl[name]
		fmt.Printf("%-10s %6d %10v %9.0fT %11.1fs\n",
			name, a.count,
			units.MB(int(a.mem)/a.count),
			float64(a.threads)/float64(a.count),
			(a.seq / units.Tick(a.count)).Seconds())
	}
	fmt.Printf("total sequential work: %.0f s across %d jobs\n",
		s.seqTotal.Seconds(), s.total)
	if !diurnal {
		return
	}
	// One arrival, or a burst sharing one timestamp, spans no time and
	// has no mean rate.
	fmt.Printf("arrivals: %.1fs .. %.1fs", s.firstAt.Seconds(), s.lastAt.Seconds())
	if span := s.lastAt - s.firstAt; span > 0 {
		fmt.Printf(" (%.2f jobs/s mean)", float64(s.total)/span.Seconds())
	}
	fmt.Println()
	if len(s.byTenant) > 1 {
		type tc struct {
			name string
			n    int
		}
		tenants := make([]tc, 0, len(s.byTenant))
		for name, n := range s.byTenant {
			tenants = append(tenants, tc{name, n})
		}
		sort.Slice(tenants, func(i, j int) bool {
			if tenants[i].n != tenants[j].n {
				return tenants[i].n > tenants[j].n
			}
			return tenants[i].name < tenants[j].name
		})
		top := tenants
		if len(top) > 5 {
			top = top[:5]
		}
		fmt.Printf("tenants: %d; heaviest:", len(tenants))
		for _, t := range top {
			fmt.Printf(" %s=%d", t.name, t.n)
		}
		fmt.Println()
	}
}
