// Command sammybench is the repository's end-to-end benchmark. It runs one
// workload in one process against the program's packages, checks the
// workload's outputs, and prints one JSON result line:
//
//	sammybench --workload population|lab|edge --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics (CPU-profile self time by module, the
// program's obs counters and pacing engine stats, and the benchmark's own
// timing wrappers around each layer's public calls), and the profile and
// counters are written under --out. --repeat N re-runs the workload in N
// child processes (seeds seed..seed+N-1) and prints each metric's median,
// quartiles and spread. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// processStart approximates the process start for setup_s: package-level
// variables of main initialize after the runtime and every imported package.
var processStart = time.Now()

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings every workload receives.
type options struct {
	seed    int64
	seconds time.Duration
	traced  bool
	outDir  string
}

// report is what a workload hands back: operation counts, metrics, and the
// output checks that failed (empty when every check passed).
type report struct {
	attempted, failed int64
	metrics           map[string]metric
	failures          []string
}

func (r *report) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// check records a failed output check when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(options) (*report, error){
	"population": runPopulation,
	"lab":        runLab,
	"edge":       runEdge,
}

func main() {
	name := flag.String("workload", "", "workload to run: population, lab or edge")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "how long the timed phase runs, in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer mode, 0 the end-to-end mode")
	outDir := flag.String("out", ".bench_out", "directory for traced-mode profiles and counters")
	repeat := flag.Int("repeat", 0, "steadiness mode: run the workload this many times in child processes and summarize")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) || flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *repeat > 0 {
		os.Exit(steadiness(*name, *seed, *seconds, *traceFlag, *outDir, *repeat))
	}

	opts := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *traceFlag == 1, outDir: *outDir}
	rep, err := run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sammybench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	for _, f := range rep.failures {
		fmt.Fprintf(os.Stderr, "sammybench: %s: check failed: %s\n", *name, f)
	}
	res := result{
		Correct:   len(rep.failures) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sammybench: %v\n", err)
		os.Exit(1)
	}
	printMetrics(rep.metrics)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// printMetrics writes a readable metric table to stderr.
func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-34s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
