package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"repro/internal/obs"
)

// slices records identical units of work timed back to back: wall seconds
// and bytes allocated per slice, plus GC cycles over all of them.
type slices struct {
	secs   []float64
	allocs []float64
	gcs    uint32
}

// timeSlice runs fn once and appends its wall time and allocation.
func (s *slices) timeSlice(fn func() error) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	s.secs = append(s.secs, d.Seconds())
	s.allocs = append(s.allocs, float64(m1.TotalAlloc-m0.TotalAlloc))
	s.gcs += m1.NumGC - m0.NumGC
	return err
}

// runFor runs fn as timed slices until d has elapsed (at least two slices).
func (s *slices) runFor(d time.Duration, fn func() error) error {
	end := time.Now().Add(d)
	for len(s.secs) < 2 || time.Now().Before(end) {
		if err := s.timeSlice(fn); err != nil {
			return err
		}
	}
	return nil
}

// median is the median slice time in seconds.
func (s *slices) median() float64 { return quantile(s.secs, 0.5) }

// medianAlloc is the median bytes allocated per slice.
func (s *slices) medianAlloc() float64 { return quantile(s.allocs, 0.5) }

// quantile is the linearly interpolated q-quantile of xs (xs is not
// modified). It returns NaN for empty input.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(i)
	return s[i]*(1-frac) + s[i+1]*frac
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4) with its
// default "exclusive" method, the estimator the benchmark's steadiness is
// judged by.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		out[i-1] = (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return out[0], out[1], out[2]
}

// maxRSSMB is the process's peak resident set size so far, in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// setupDone returns setup_s: seconds from process start to now.
func setupDone() float64 { return time.Since(processStart).Seconds() }

// overheadPct is the traced-versus-untraced host-time overhead in percent.
func overheadPct(traced, untraced float64) float64 {
	return 100 * (traced/untraced - 1)
}

// perLayerNames lists every per-layer metric with its unit. Every workload
// reports all of them in traced mode; a layer a workload does not exercise
// reads 0 there.
var perLayerNames = func() [][2]string {
	var out [][2]string
	for _, m := range profileModules {
		out = append(out, [2]string{m + ".self_ms_per_op", "ms"})
	}
	return append(out,
		[2]string{"runtime.gc_cycles_per_kop", "count"},
		[2]string{"abtest.draw_us_per_op", "us"},
		[2]string{"abtest.shard_s.p50", "s"},
		[2]string{"abtest.shard_s.max", "s"},
		[2]string{"abtest.checkpoint_kB_per_shard", "kB"},
		[2]string{"stats.compare_ms", "ms"},
		[2]string{"abr.decide_ns", "ns"},
		[2]string{"abr.decisions_per_op", "count"},
		[2]string{"sim.events_per_op", "count"},
		[2]string{"tcp.segments_per_op", "count"},
		[2]string{"sim.dropped_packets", "count"},
		[2]string{"overload.admit_us.p50", "us"},
		[2]string{"cdn.serve_us_per_MB", "us"},
		[2]string{"cdn.write_us_per_MB", "us"},
		[2]string{"cdn.client_us_per_MB", "us"},
		[2]string{"pacing.wakeups_per_paced_MB", "count"},
		[2]string{"pacing.releases_per_paced_MB", "count"},
		[2]string{"netmodel.near_capacity_pct", "%"},
		[2]string{"obs.trace_overhead_pct", "%"},
	)
}()

// zeroPerLayer fills r with every per-layer metric at 0, for the workload
// to overwrite with what it measured.
func zeroPerLayer(r *report) {
	for _, nu := range perLayerNames {
		r.set(nu[0], 0, nu[1])
	}
}

// traceFile is the path of a traced-mode artifact of the workload's run.
func traceFile(opts options, workload, name string) string {
	return filepath.Join(opts.outDir, fmt.Sprintf("%s-seed%d", workload, opts.seed), name)
}

// writeTraceArtifacts writes the traced run's per-layer metrics
// (layers.json) and the obs counters and engine stats they came from
// (counters.json) next to its CPU profile.
func writeTraceArtifacts(opts options, workload string, rep *report, reg *obs.Registry, engine any) error {
	write := func(name string, v any) error {
		path := traceFile(opts, workload, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		b, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(path, append(b, '\n'), 0o644)
	}
	if err := write("layers.json", rep.metrics); err != nil {
		return err
	}
	counters := map[string]any{"obs": reg.Export()}
	if engine != nil {
		counters["pacing_engine"] = engine
	}
	return write("counters.json", counters)
}

// steadiness re-runs the workload n times in child processes, one seed
// each, and prints every metric's median, quartiles and spread (quartile
// distance over median). It returns the process exit code.
func steadiness(workload string, seed int64, seconds, traceFlag int, outDir string, n int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "sammybench: %v\n", err)
		return 1
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var failShares []float64
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(traceFlag), "--out", outDir)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "sammybench: run with seed %d: %v\n", s, err)
			return 1
		}
		var res result
		if err := json.Unmarshal(lastLine(out), &res); err != nil {
			fmt.Fprintf(os.Stderr, "sammybench: run with seed %d: bad result line: %v\n", s, err)
			return 1
		}
		failShares = append(failShares, float64(res.Failed)/float64(res.Attempted))
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
		fmt.Fprintf(os.Stderr, "sammybench: seed %d done (%d attempted, %d failed)\n", s, res.Attempted, res.Failed)
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%s, %d runs of %d s, seeds %d..%d, trace=%d\n", workload, n, seconds, seed, seed+int64(n)-1, traceFlag)
	fmt.Printf("%-34s %12s %12s %12s %8s  %s\n", "metric", "q1", "median", "q3", "spread", "unit")
	for _, k := range names {
		q1, q2, q3 := quartiles(values[k])
		fmt.Printf("%-34s %12.6g %12.6g %12.6g %7.2f%%  %s\n", k, q1, q2, q3, 100*(q3-q1)/math.Abs(q2), units[k])
	}
	fmt.Printf("failed share per run: %v\n", failShares)
	return 0
}

// lastLine returns the last non-empty line of out.
func lastLine(out []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	return last
}
