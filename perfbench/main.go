package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run reports, on every
// workload (see doc.go for what each means on each workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"pass_s", "s"},
	{"alloc_mb_per_pass", "MB"},
	{"live_heap_mb", "MB"},
	{"jobs_per_s", "1/s"},
	{"classify_p50_ms", "ms"},
	{"write_p50_ms", "ms"},
}

// perLayer are the metrics every traced run reports, on every workload:
// the layers' own, the tracing's cost, and the operation tails that a
// shared host moves too much between runs to gate (see doc.go).
var perLayer = []metricDef{
	{"trace.read_ms", "ms"},
	{"trace.rows_per_s", "1/s"},
	{"trace.read_alloc_mb", "MB"},
	{"sampling.filter_ms", "ms"},
	{"sampling.filter_alloc_mb", "MB"},
	{"core.run_ms", "ms"},
	{"core.run_alloc_mb", "MB"},
	{"core.model_ms", "ms"},
	{"core.classify_us", "us"},
	{"core.classify_allocs", "count"},
	{"wl.features_ms", "ms"},
	{"wl.matrix_ms", "ms"},
	{"wl.ablation_ms", "ms"},
	{"cluster.spectral_ms", "ms"},
	{"cluster.spectral_alloc_mb", "MB"},
	{"dag.build_us", "us"},
	{"serve.journal_sync_ms", "ms"},
	{"wl.ann_query_us", "us"},
	{"classify_p99_ms", "ms"},
	{"write_p99_ms", "ms"},
	{"similar_p50_ms", "ms"},
	{"similar_p99_ms", "ms"},
	{"serve.wait_ms", "ms"},
	{"serve.rejected", "count"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.root_self_ms", "ms"},
}

// metric is one value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates one run's metrics, operation counts and the
// human-readable lines printed ahead of the result.
type report struct {
	attempted, failed int64
	values            map[string]float64
	lines             []string
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) notef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// count records one attempted operation, failed unless ok.
func (r *report) count(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

// setTail records a latency sample's (ms) p50 and tail under
// prefix_p50_ms and prefix_p99_ms, noting the percentile and count the
// tail actually rests on.
func (r *report) setTail(prefix string, xs []float64) {
	p50, p99 := percentile(xs, 50), percentile(xs, 99)
	r.set(prefix+"_p50_ms", p50.Value)
	r.set(prefix+"_p99_ms", p99.Value)
	r.notef("%s: p50 %.4f ms, p%.2f %.4f ms over %d samples", prefix, p50.Value, p99.P, p99.Value, p99.N)
}

// env is what a workload needs from the command line.
type env struct {
	seed    int64
	seconds float64
	traced  bool
	daemon  string // jobgraphd binary (serve)
	dir     string // scratch directory owned by this run
	sizes   sizes
	setup   *setupRecord
}

// measured is how long each measured phase lasts: the whole run
// untraced, or half untraced (the overhead baseline) and half traced.
func (e *env) measured() time.Duration {
	d := time.Duration(e.seconds * float64(time.Second))
	if e.traced {
		d /= 2
	}
	return d
}

var workloads = map[string]func(*env) (*report, error){
	"ingest":  runIngest,
	"cluster": runCluster,
	"serve":   runServe,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run: ingest, cluster or serve")
		seed     = fs.Int64("seed", 1, "seed for every generated input")
		seconds  = fs.Float64("seconds", 28, "length of the measured phase")
		traceOn  = fs.Int("trace", 0, "1: report per-layer metrics from a traced run instead of end-to-end metrics")
		daemon   = fs.String("daemon", "", "jobgraphd binary (serve workload)")
		work     = fs.String("work", "", "directory for the run's scratch files")
		repo     = fs.String("repo", ".", "repository root, recorded in the setup line")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) || *work == "" {
		fmt.Fprintf(stderr, "perfbench: need -workload ingest|cluster|serve, -seconds > 0, -trace 0|1 and -work\n")
		return 2
	}
	dir := filepath.Join(*work, fmt.Sprintf("%s-seed%d-%d", *workload, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	e := &env{
		seed: *seed, seconds: *seconds, traced: *traceOn == 1,
		daemon: *daemon, dir: dir, sizes: fullSizes,
		setup: newSetupRecord(*repo, *workload, *seed, *seconds, *traceOn == 1),
	}
	rep, err := fn(e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	res, err := rep.result(e.traced)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	setupLine, _ := json.Marshal(e.setup)
	fmt.Fprintf(stdout, "setup %s\n", setupLine)
	for _, l := range rep.lines {
		fmt.Fprintln(stdout, l)
	}
	defs := endToEnd
	if e.traced {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(stdout, "%-26s %14.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	fmt.Fprintf(stdout, "%-26s %14.6g ratio (%d failed of %d attempted)\n", "error_rate",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// result builds the final line from the metrics of the run's mode
// (a traced run also measures some end-to-end values on the way),
// checking that every one was measured.
func (r *report) result(traced bool) (result, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	if r.attempted < 1 {
		return result{}, fmt.Errorf("no operation was attempted")
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	for name := range r.values {
		if !defined(name) {
			return result{}, fmt.Errorf("metric %s is not defined", name)
		}
	}
	return res, nil
}

func defined(name string) bool {
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if d.name == name {
			return true
		}
	}
	return false
}

// workers is the parallelism every workload grants the program: one
// worker (or client) per CPU.
func workers() int { return runtime.NumCPU() }
