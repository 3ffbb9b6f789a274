package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
)

// profileModules are the groups CPU-profile self time is reported under:
// the program's internal packages by module, the Go runtime, the socket path
// (net/http, net, internal/poll, bufio, and the raw syscalls, which in the
// edge workload are socket reads and writes), math and math/rand, the
// benchmark's own code, and everything else.
var profileModules = []string{
	"abtest", "abr", "bwest", "cdn", "core", "fault", "lab", "netmodel", "obs",
	"overload", "pacing", "player", "sim", "stats", "tcp", "tdigest", "trace",
	"traffic", "units", "video",
	"runtime", "nethttp", "math", "bench", "other",
}

// moduleOf maps a profiled function name to its profileModules group.
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
		mod := rest
		if i := strings.IndexAny(mod, "./"); i >= 0 {
			mod = mod[:i]
		}
		for _, m := range profileModules {
			if m == mod {
				return m
			}
		}
		return "other"
	}
	switch {
	case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, "repro/sammybench"):
		return "bench"
	case strings.HasPrefix(fn, "net/http."), strings.HasPrefix(fn, "net."),
		strings.HasPrefix(fn, "internal/poll."), strings.HasPrefix(fn, "syscall."),
		strings.HasPrefix(fn, "internal/runtime/syscall."),
		strings.HasPrefix(fn, "bufio."), strings.HasPrefix(fn, "net/textproto."):
		return "nethttp"
	case strings.HasPrefix(fn, "runtime."), strings.HasPrefix(fn, "runtime/internal/"),
		strings.HasPrefix(fn, "internal/runtime/"), strings.HasPrefix(fn, "internal/bytealg."),
		strings.HasPrefix(fn, "sync/atomic."), strings.HasPrefix(fn, "internal/sync."),
		strings.HasPrefix(fn, "sync."), strings.HasPrefix(fn, "gcWriteBarrier"),
		fn == "memeqbody", fn == "aeshashbody", fn == "indexbytebody", fn == "cmpbody":
		return "runtime"
	case strings.HasPrefix(fn, "math."), strings.HasPrefix(fn, "math/"):
		return "math"
	}
	return "other"
}

// cpuProfile is a CPU profile in progress.
type cpuProfile struct{ buf bytes.Buffer }

// startProfile starts the process CPU profile.
func startProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile, writes it to path and returns self CPU time in
// milliseconds per profileModules group.
func (p *cpuProfile) stop(path string) (map[string]float64, error) {
	pprof.StopCPUProfile()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, p.buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return selfTimeByModule(path)
}

// selfTimeByModule sums the flat (self) CPU time of every function in the
// profile at path, inlined functions included, under its module. It reads
// `go tool pprof -top`, whose rows are "flat flat% sum% cum cum% name".
func selfTimeByModule(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=0",
		"-nodefraction=0", "-edgefraction=0", "-unit=ms", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %w", path, err)
	}
	self := map[string]float64{}
	for _, m := range profileModules {
		self[m] = 0
	}
	rows := 0
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasSuffix(f[0], "ms") || !strings.HasSuffix(f[1], "%") {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			continue
		}
		self[moduleOf(f[5])] += ms
		rows++
	}
	if rows == 0 {
		return nil, fmt.Errorf("go tool pprof %s: no samples in its -top output", path)
	}
	return self, nil
}
