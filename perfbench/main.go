// Command perfbench is the repository's benchmark. It runs one workload
// against the program's layers with a fixed amount of work generated from
// a seed, checks every answer, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics of a traced run) as one JSON object on
// the last line of standard output. A fuller report goes to standard
// error. Build and run it from the checkout root with perfbench/run.sh.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	commit   string
	tiny     bool   // test-sized deployments and request lists
	outDir   string // where traced runs write their spans
	golden   string // path of the figure golden file
}

// result is what a workload run hands back to main.
type result struct {
	attempted int64
	failed    int64 // wrong answers and errors
	e2e       map[string]float64
	layers    map[string]float64
	props     map[string]float64 // traffic properties of the request list
	phases    map[string]float64 // wall seconds of each phase of the run
	valid     bool
	passQPS   []float64 // each timed pass's throughput
	// overhead is, per end-to-end metric and host timing, the traced
	// run's value over the untraced run's with the same workload and seed
	// (traced runs only).
	overhead map[string]float64
	spans    map[string]*spanStat // traced runs: totals and self time by span name
	notes    []string
	// Exact counters two same-seed runs must reproduce.
	exact map[string]float64
}

func newResult() *result {
	return &result{
		e2e:    map[string]float64{},
		layers: map[string]float64{},
		props:  map[string]float64{},
		phases: map[string]float64{},
		exact:  map[string]float64{},
		valid:  true,
	}
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// workloads maps each workload to its runner.
var workloads = map[string]func(config, *tracer) (*result, error){
	"cluster-hot": runClusterHot,
	"accel-cold":  runAccelCold,
	"serve-open":  runServeOpen,
	"figures":     runFigures,
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: cluster-hot, accel-cold, serve-open or figures")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated request list")
	flag.IntVar(&cfg.seconds, "seconds", 10, "run length; the request count is a fixed rate times this")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run reporting the per-layer metrics")
	flag.StringVar(&cfg.commit, "commit", "none", "commit of the program under test, for the report")
	flag.Parse()
	cfg.outDir, cfg.golden = ".bench_build/traces", "results_full.txt"
	cfg.trace = traceFlag == 1
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload cluster-hot|accel-cold|serve-open|figures --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if _, err := os.Stat(cfg.golden); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v (run from the checkout root)\n", err)
		os.Exit(2)
	}

	var tr *tracer
	var untraced *result
	if cfg.trace {
		// The tracing overhead is measured against an untraced run of the
		// same workload and seed, made first in this process.
		u, err := run(cfg, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s (untraced): %v\n", cfg.workload, err)
			os.Exit(1)
		}
		untraced, tr = u, newTracer()
	}
	res, err := run(cfg, tr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if tr != nil {
		addTraceLayers(res, tr, untraced)
		path := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
		if err := tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
	}
	emit(cfg, res)
	if res.failed > 0 {
		os.Exit(1)
	}
}

// metricValue returns a metric of a run, wherever the run filed it.
func metricValue(res *result, name string) float64 {
	return res.e2e[name] + res.layers[name]
}

// addTraceLayers folds the traced run's own bookkeeping into the
// per-layer metrics: span-derived layer timings, and what tracing cost
// as the traced run's end-to-end metrics and host timings over those of
// the untraced run made before it. The untraced run's requests count as
// attempted too, so a wrong answer in either fails the command.
func addTraceLayers(res *result, tr *tracer, untraced *result) {
	tr.mu.Lock()
	n := len(tr.spans)
	tr.mu.Unlock()
	res.layers["trace.spans_per_req"] = float64(n) / float64(max(res.attempted, 1))
	res.layers["trace.nesting_errors"] = float64(tr.nestingErrors())
	res.overhead = make(map[string]float64, len(overheadMetrics))
	for _, d := range overheadMetrics {
		if u := metricValue(untraced, d.name); u != 0 {
			res.overhead[d.name] = metricValue(res, d.name) / u
			res.layers["trace.overhead."+d.name] = res.overhead[d.name]
		}
	}
	res.attempted += untraced.attempted
	res.failed += untraced.failed
	res.notes = append(res.notes, untraced.notes...)
	res.spans = tr.summarize()
	for name, st := range res.spans {
		switch {
		case name == "query.parse":
			res.layers["query.parse_us"] = st.MeanUs
		case name == "pool.search", name == "pool.batch_exec", name == "core.run":
			res.layers[name+"_ms"] = st.MeanUs / 1e3
		case strings.HasPrefix(name, "harness."):
			res.layers[name+"_s"] = st.MeanUs / 1e6
		}
	}
}

// emit prints the report to standard error, one line per metric and the
// result object to standard output.
func emit(cfg config, res *result) {
	vals := make(map[string]float64, len(res.e2e)+len(res.layers))
	for _, m := range []map[string]float64{res.e2e, res.layers} {
		for k, v := range m {
			vals[k] = v
		}
	}
	defs, extra := e2eMetrics, hostMetrics
	if cfg.trace {
		defs, extra = layerMetrics, nil
	}
	metrics := make(map[string]map[string]any, len(defs))
	for _, d := range defs {
		metrics[d.name] = map[string]any{"value": vals[d.name], "unit": d.unit}
		fmt.Printf("%-40s %14.6g %s\n", d.name, vals[d.name], d.unit)
	}
	for _, d := range extra {
		fmt.Printf("%-40s %14.6g %s (per-layer)\n", d.name, vals[d.name], d.unit)
	}
	report := map[string]any{
		"workload":                   cfg.workload,
		"seed":                       cfg.seed,
		"seconds":                    cfg.seconds,
		"trace":                      cfg.trace,
		"valid":                      res.valid,
		"notes":                      res.notes,
		"properties":                 res.props,
		"phases_s":                   res.phases,
		"pass_qps":                   res.passQPS,
		"trace_overhead_vs_untraced": res.overhead,
		"spans":                      res.spans,
		"end_to_end":                 res.e2e,
		"per_layer":                  res.layers,
		"exact":                      res.exact,
		"env": map[string]any{
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go":         runtime.Version(),
			"goos":       runtime.GOOS + "/" + runtime.GOARCH,
			"commit":     cfg.commit,
			"time":       time.Now().UTC().Format(time.RFC3339),
		},
	}
	if b, err := json.MarshalIndent(report, "", "  "); err == nil {
		fmt.Fprintln(os.Stderr, string(b))
	}
	last, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(last))
}
