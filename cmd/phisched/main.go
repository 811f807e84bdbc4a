// Command phisched runs a single cluster-scheduling simulation and prints
// its measurements: makespan, utilization, concurrency, and per-policy
// statistics. It is the "run one configuration" tool; cmd/phibench
// regenerates the full evaluation.
//
// Usage:
//
//	phisched -policy MCCK -nodes 8 -jobs 1000 -workload tableI [-seed 42]
//	phisched -policy MCC -workload normal -jobs 400
//	phisched -policy MCCK -dashboard run.html -events events.jsonl -metrics run.prom
//
// Workloads: tableI (the paper's real application mix) or one of the
// synthetic distributions uniform, normal, low-skew, high-skew.
//
// The observability flags (-events, -metrics, -series, -dashboard) attach
// the internal/obs layer to the run and export its artifacts;
// instrumentation never changes simulated outcomes. -eventlog (the condor
// user log) and -trace/-svg (the offload timeline) read the same trace
// event stream, retaining nothing else when they are all that was asked
// for. -perfetto
// exports causal job spans as a Chrome trace-event file for ui.perfetto.dev,
// -critpath writes the critical-path makespan attribution, and
// -stream-events traces arbitrarily large runs in bounded memory by
// streaming JSONL during the run instead of retaining events.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"phishare/internal/condor"
	"phishare/internal/experiments"
	"phishare/internal/job"
	"phishare/internal/obs"
	"phishare/internal/rng"
	"phishare/internal/trace"
	"phishare/internal/units"
	"phishare/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("phisched: ")

	var (
		policy   = flag.String("policy", "MCCK", "scheduling policy: MC, MCC, MCCK, Agnostic")
		nodes    = flag.Int("nodes", 8, "cluster size (servers, 1 Xeon Phi each)")
		devices  = flag.Int("devices", 1, "Xeon Phi devices per node")
		njobs    = flag.Int("jobs", 1000, "number of jobs")
		wl       = flag.String("workload", "tableI", "workload: tableI, uniform, normal, low-skew, high-skew")
		input    = flag.String("input", "", "load the job set from a phigen -json file instead of generating one")
		seed     = flag.Int64("seed", 42, "random seed")
		verbose  = flag.Bool("v", false, "print per-workload turnaround breakdown")
		traceOut = flag.String("trace", "", "write the offload trace (CSV) to this file")
		svgOut   = flag.String("svg", "", "write the offload timeline as an SVG Gantt chart")

		eventsOut  = flag.String("events", "", "write the structured trace event stream (JSONL) to this file")
		metricsOut = flag.String("metrics", "", "write the metrics snapshot (Prometheus text format) to this file")
		seriesOut  = flag.String("series", "", "write the sampled time series (CSV) to this file")
		dashOut    = flag.String("dashboard", "", "write a self-contained HTML dashboard to this file")
		sampleSec  = flag.Float64("sample", 5, "time-series sampling period in simulated seconds")
		eventlog   = flag.String("eventlog", "", "write the condor job event log (CSV) to this file")

		perfetto  = flag.String("perfetto", "", "write job spans as a Chrome/Perfetto trace-event JSON file")
		critpath  = flag.String("critpath", "", "write the critical-path makespan attribution (text report) to this file")
		streamOut = flag.String("stream-events", "", "stream trace events (JSONL) to this file during the run without retaining them (bounded memory; disables -events)")
	)
	flag.Parse()

	var jobs []*job.Job
	switch {
	case *input != "":
		f, err := os.Open(*input)
		if err != nil {
			log.Fatal(err)
		}
		jobs, err = job.ReadJSON(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		*wl = *input
	case *wl == "tableI":
		jobs = job.GenerateTableOneSet(*njobs, rng.New(*seed).Fork("tableI"))
	default:
		d, err := workload.ParseDistribution(*wl)
		if err != nil {
			log.Fatal(err)
		}
		jobs = workload.Generate(workload.Config{Dist: d, N: *njobs, Seed: *seed})
	}

	runCfg := experiments.RunConfig{
		Policy:         *policy,
		Nodes:          *nodes,
		DevicesPerNode: *devices,
		Jobs:           jobs,
		Seed:           *seed,
	}
	// The offload timeline and the user log are consumers of the run's
	// trace; when they are all that was asked for, the trace streams to
	// them and retains nothing.
	exports := *eventsOut != "" || *metricsOut != "" || *seriesOut != "" || *dashOut != "" ||
		*perfetto != "" || *critpath != "" || *streamOut != ""
	var o *obs.Observer
	if exports || *traceOut != "" || *svgOut != "" || *eventlog != "" {
		o = obs.New()
		o.SampleInterval = units.Tick(*sampleSec * float64(units.Second))
		o.Trace.SetStreaming(!exports)
		runCfg.Obs = o
	}
	var rec *trace.Recorder
	if *traceOut != "" || *svgOut != "" {
		rec = trace.NewRecorder(jobs)
		o.Trace.AddConsumer(rec)
	}
	var elog *condor.EventLog
	if *eventlog != "" {
		elog = condor.NewEventLog()
		o.Trace.AddConsumer(elog)
	}
	// Spans assemble from the live canonical stream, so -perfetto/-critpath
	// work even when -stream-events drops the trace after emission.
	var spanB *obs.SpanBuilder
	if *perfetto != "" || *critpath != "" {
		spanB = obs.NewSpanBuilder()
		o.Trace.AddConsumer(spanB)
	}
	var streamFile *os.File
	var stream *obs.StreamSink
	if *streamOut != "" {
		f, err := os.Create(*streamOut)
		if err != nil {
			log.Fatalf("create %s: %v", *streamOut, err)
		}
		streamFile = f
		stream = o.StreamEvents(f)
		*eventsOut = "" // nothing retained to dump post-hoc
	}
	res := experiments.Run(runCfg)

	if stream != nil {
		if err := stream.Err(); err != nil {
			log.Fatalf("stream events: %v", err)
		}
		if err := streamFile.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("streamed %d trace events to %s (buffer high-water %d bytes)",
			stream.Events(), *streamOut, stream.HighWater())
	}

	writeArtifact := func(path, what string, write func(io.Writer) error) {
		if path == "" {
			return
		}
		f, err := os.Create(path)
		if err != nil {
			log.Fatalf("create %s: %v", path, err)
		}
		if err := write(f); err != nil {
			log.Fatalf("write %s: %v", what, err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s to %s", what, path)
	}
	if o != nil {
		writeArtifact(*eventsOut, "event stream (JSONL)", o.WriteEvents)
		writeArtifact(*metricsOut, "metrics snapshot (Prometheus)", o.WriteMetrics)
		writeArtifact(*seriesOut, "time series (CSV)", o.WriteSeriesCSV)
		writeArtifact(*dashOut, "dashboard (HTML)", func(w io.Writer) error {
			title := fmt.Sprintf("phisched %s: %d jobs (%s) on %d nodes, seed %d",
				res.Policy, res.JobCount, *wl, *nodes, *seed)
			return o.WriteDashboard(w, title)
		})
	}
	if spanB != nil {
		spans := spanB.Spans()
		writeArtifact(*perfetto, "Perfetto trace (JSON)", func(w io.Writer) error {
			return obs.WriteChromeTrace(w, spans)
		})
		writeArtifact(*critpath, "critical-path attribution", func(w io.Writer) error {
			cp := obs.AnalyzeCriticalPath(spans)
			if cp == nil {
				_, err := io.WriteString(w, "no completed spans; nothing to attribute\n")
				return err
			}
			return cp.WriteText(w)
		})
	}
	if elog != nil {
		writeArtifact(*eventlog, "condor event log (CSV)", elog.WriteCSV)
	}

	if rec != nil && *svgOut != "" {
		f, err := os.Create(*svgOut)
		if err != nil {
			log.Fatalf("create %s: %v", *svgOut, err)
		}
		if err := rec.WriteSVG(f, 240); err != nil {
			log.Fatalf("write svg: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote timeline SVG to %s", *svgOut)
	}

	if rec != nil && *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatalf("create %s: %v", *traceOut, err)
		}
		if err := rec.WriteCSV(f); err != nil {
			log.Fatalf("write trace: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %d offload intervals to %s", len(rec.Intervals()), *traceOut)
		totalThreads := float64(*nodes * *devices * 240)
		fmt.Printf("\ncluster thread occupancy over the run:\n[%s]\n",
			trace.Sparkline(rec.Timeline(64, res.Makespan), totalThreads))
	}

	fmt.Printf("policy           %s\n", res.Policy)
	fmt.Printf("cluster          %d nodes x %d device(s)\n", *nodes, *devices)
	fmt.Printf("jobs             %d (%s)\n", res.JobCount, *wl)
	fmt.Printf("makespan         %.0f s\n", res.Makespan.Seconds())
	fmt.Printf("core utilization %.1f%%\n", res.Utilization*100)
	fmt.Printf("max concurrency  %d jobs/device\n", res.MaxConcurrency)
	fmt.Printf("completed        %d\n", res.Summary.Completed)
	fmt.Printf("failed           %d\n", res.Summary.Failed)
	fmt.Printf("crashes          %d\n", res.Summary.Crashes)
	fmt.Printf("mean wait        %.1f s\n", res.Summary.MeanWait.Seconds())
	fmt.Printf("mean turnaround  %.1f s\n", res.Summary.MeanTurnaround.Seconds())
	fmt.Printf("negotiations     %d\n", res.PoolStats.Negotiations)
	fmt.Printf("qedits           %d\n", res.PoolStats.Qedits)

	if *verbose {
		byWorkload := map[string]int{}
		for _, j := range jobs {
			byWorkload[j.Workload]++
		}
		names := make([]string, 0, len(byWorkload))
		for name := range byWorkload {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Println("\njob mix:")
		for _, name := range names {
			fmt.Printf("  %-10s %d\n", name, byWorkload[name])
		}
	}
}
