// Command perfbench is the repository benchmark. It runs one named
// workload against the library or the query server in this process,
// checks every answer against the serial oracle, and prints each
// metric by name and unit; the last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": 1234, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload rmat-2d --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the metrics are the end-to-end figures; with
// --trace 1 the run records spans around every layer call it makes,
// writes them to .bench_build/spans, and reports the per-layer figures.
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// decl is one metric BENCHMARK.json declares.
type decl struct{ name, unit string }

// endToEnd lists the metrics an untraced run reports, in
// BENCHMARK.json order.
var endToEnd = []decl{
	{"setup_s", "s"}, {"latency_p50_ms", "ms"}, {"latency_p90_ms", "ms"},
	{"teps_hmean", "edges/s"}, {"sim_teps_hmean", "edges/s"},
	{"ok_frac", "ratio"}, {"mem_sys_mb", "MiB"},
}

// commTags are the collective tags the cost model books time under.
var commTags = []string{"a2a", "allreduce", "bitmap", "expand", "fold", "transpose"}

// perLayer lists the metrics a traced run reports, in BENCHMARK.json
// order. A layer the workload does not reach reports 0.
var perLayer = []decl{
	{"rmat.generate_s", "s"}, {"webgen.generate_s", "s"}, {"graph.build_csr_s", "s"},
	{"bfs2d.distribute_s", "s"}, {"bfs1d.distribute_s", "s"},
	{"pbfs.engine_build_s", "s"}, {"serve.new_s", "s"},
	{"bfs2d.run_ms", "ms"}, {"bfs1d.run_ms", "ms"}, {"pbfs.search_overhead_ms", "ms"},
	{"bfs.levels", "count"}, {"bfs.scanned_edges", "count"}, {"bfs.bottomup_levels", "count"},
	{"bfs.ns_per_scanned_edge", "ns"}, {"bfs.us_per_level", "us"},
	{"cluster.allreduce_us", "us"}, {"cluster.sent_words", "words"}, {"sim.comm_frac", "ratio"},
	{"sim.comm_s.a2a", "s"}, {"sim.comm_s.allreduce", "s"}, {"sim.comm_s.bitmap", "s"},
	{"sim.comm_s.expand", "s"}, {"sim.comm_s.fold", "s"}, {"sim.comm_s.transpose", "s"},
	{"go.allocs_per_search", "count"}, {"go.bytes_per_search", "bytes"},
	{"pbfs.batch1_ms", "ms"}, {"pbfs.batch64_ms", "ms"},
	{"serve.queue_wait_p50_ms", "ms"}, {"serve.queue_wait_p99_ms", "ms"},
	{"serve.after_dispatch_p50_ms", "ms"},
	{"serve.occupancy_mean", "queries"}, {"serve.batches", "count"},
	{"serve.cache_hit_rate", "ratio"}, {"serve.coalesced_frac", "ratio"}, {"serve.cached_p50_ms", "ms"},
	{"serve.late_frac", "ratio"}, {"serve.shed_frac", "ratio"},
	{"serve.queue_full_frac", "ratio"}, {"serve.error_frac", "ratio"},
	{"serve.interactive_p99_ms", "ms"}, {"serve.bulk_p50_ms", "ms"},
	{"serve.sent", "count"}, {"serve.served", "count"}, {"serve.cached", "count"},
	{"serve.coalesced", "count"}, {"serve.late", "count"}, {"serve.shed", "count"},
	{"serve.queue_full", "count"}, {"serve.errors", "count"},
	{"graph500.validate_ms", "ms"}, {"loadgen.lag_p99_ms", "ms"},
	{"trace.spans", "count"}, {"trace.ns_per_span", "ns"},
	{"trace.overhead_frac", "ratio"}, {"trace.latency_p50_ms", "ms"},
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's figures. Every figure is printed as a
// human-readable line; only the declared ones for the run's mode go
// into the final JSON line.
type report struct {
	metrics   map[string]metric
	order     []string
	attempted int
	failed    int
	wrong     int
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

// set records a figure; a later set of the same name replaces it.
func (r *report) set(name string, value float64, unit string) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// note prints a free-form report line.
func note(format string, args ...any) { fmt.Printf("# "+format+"\n", args...) }

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// emit prints every figure, then the JSON line with the declared set.
// It fails when a declared metric was never set: a benchmark bug.
func (r *report) emit(declared []decl) (result, error) {
	for _, name := range r.order {
		m := r.metrics[name]
		fmt.Printf("%-28s %16.6g %s\n", name, m.Value, m.Unit)
	}
	out := result{Correct: r.wrong == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metric, len(declared))}
	for _, d := range declared {
		m, ok := r.metrics[d.name]
		switch {
		case !ok:
			return out, fmt.Errorf("metric %s was not measured", d.name)
		case m.Unit != d.unit:
			return out, fmt.Errorf("metric %s measured in %s, declared in %s", d.name, m.Unit, d.unit)
		}
		out.Metrics[d.name] = m
	}
	return out, nil
}

// config is one run's command line.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

// spansDir is where a traced run writes its spans, relative to the
// repository root the benchmark runs from.
const spansDir = ".bench_build/spans"

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg config, tr *tracer, rep *report) error{
	"rmat-2d":     runLibrary,
	"web-1d":      runLibrary,
	"serve-mixed": runServe,
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: rmat-2d, web-1d or serve-mixed")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed for the generated graph and traffic")
	flag.IntVar(&cfg.seconds, "seconds", 30, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	flag.Parse()
	cfg.trace = traceFlag == 1
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		names := make([]string, 0, len(workloads))
		for name := range workloads {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %v, --seconds >= 1 and --trace 0|1\n", names)
		os.Exit(2)
	}
	note("workload %s seed %d seconds %d trace %v", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	note("host nproc %d GOMAXPROCS %d go %s %s/%s", runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), runtime.GOOS, runtime.GOARCH)

	tr := newTracer(cfg.trace)
	rep := newReport()
	if cfg.trace {
		for _, d := range perLayer {
			rep.set(d.name, 0, d.unit)
		}
	}
	total0, steal0, stealOK := cpuTicks()
	if err := run(cfg, tr, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if total1, steal1, ok := cpuTicks(); stealOK && ok && total1 > total0 {
		// Time the hypervisor gave this machine's CPUs to others: on a
		// shared host it slows every timed figure of the run alike.
		note("host steal %.1f%% of CPU time during the run", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	var runtimeStats runtime.MemStats
	runtime.ReadMemStats(&runtimeStats)
	rep.set("mem_sys_mb", float64(runtimeStats.Sys)/(1<<20), "MiB")
	declared := endToEnd
	if cfg.trace {
		declared = perLayer
		summarizeSpans(cfg, tr, rep)
	}
	out, err := rep.emit(declared)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d answers disagree with the serial oracle\n", rep.wrong)
		os.Exit(1)
	}
}

// cpuTicks returns the machine's total and stolen CPU ticks from the
// aggregate line of /proc/stat; ok is false where that is unavailable.
func cpuTicks() (total, steal uint64, ok bool) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, true
}

// summarizeSpans writes the spans out and prints self time per span
// name.
func summarizeSpans(cfg config, tr *tracer, rep *report) {
	path, err := tr.write(spansDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err != nil {
		note("spans not written: %v", err)
	} else {
		note("spans written to %s", path)
	}
	note("%-26s %8s %12s %12s", "span", "count", "total_ms", "self_ms")
	for _, lt := range selfTimes(tr.spans) {
		note("%-26s %8d %12.3f %12.3f", lt.Name, lt.Count,
			float64(lt.Total)/float64(time.Millisecond), float64(lt.Self)/float64(time.Millisecond))
	}
	rep.set("trace.spans", float64(len(tr.spans)), "count")
}
