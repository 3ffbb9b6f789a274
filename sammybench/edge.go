package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cdn"
	"repro/internal/obs"
	"repro/internal/overload"
	"repro/internal/pacing"
	"repro/internal/units"
	"repro/internal/video"
)

// The edge workload is the sammy-server stack in one process: overload
// admission in front of cdn.Server on an http.Server with per-connection
// engine pacing and the server's timeouts, listening on loopback and driven
// by two keep-alive cdn.Client connections in a closed loop. A round is
// edgeUnpacedSlices unpaced slices (Sammy's initial phase: CPU-bound in
// overload, cdn and the socket path) and one pass over the paced grid (the
// playing phase: timer-bound in the pacing engine).
const (
	edgeConns         = 2
	edgeLadderCopies  = 4  // unpaced slice = this many chunks at every ladder rung
	edgeUnpacedSlices = 60 // unpaced slices per round: about as long as a paced pass
	edgeWarmupSlices  = 20 // ≈0.7 s, so setup_s spans more than one short slow patch of the host
	edgePacedIdeal    = 100 * time.Millisecond
	edgeBurst         = cdn.DefaultBurstBytes
	edgeMB            = 1e6
)

// The paced grid: ladder-cap top bitrates × the Fig 5 c0 multipliers, so
// requested rates run from 3 to 101 Mbps. Each paced fetch is sized to take
// edgePacedIdeal at exactly its requested rate.
var (
	edgeCaps        = []units.BitsPerSecond{3 * units.Mbps, 5.8 * units.Mbps, 8.1 * units.Mbps, 16.8 * units.Mbps}
	edgeMultipliers = []float64{6.0, 4.5, 3.6, 3.2, 2.4, 1.9, 1.6, 1.45, 1.2, 1.0}
)

// edgeFetch is one planned request; cell indexes the paced grid (-1 when
// unpaced).
type edgeFetch struct {
	size units.Bytes
	rate units.BitsPerSecond
	cell int
}

// edgeInputs builds the seed's unpaced slice and paced grid, each split
// across the connections. The unpaced slice holds edgeLadderCopies chunks
// of 4 s at every rung of video.DefaultLadder() and the paced grid one
// fetch per cell, so every seed fetches the same multiset of requests: the
// seed sets their order and which connection carries each. Unpaced fetches
// go to the connection with fewer bytes so far, which keeps the two
// connections' loads within one chunk of each other.
func edgeInputs(seed int64) (unpaced, paced [edgeConns][]edgeFetch) {
	rng := rand.New(rand.NewSource(seed))
	var u []edgeFetch
	for i := 0; i < edgeLadderCopies; i++ {
		for _, r := range video.DefaultLadder() {
			u = append(u, edgeFetch{size: r.Bitrate.BytesIn(4 * time.Second), cell: -1})
		}
	}
	var p []edgeFetch
	for ci, c := range edgeCaps {
		for mi, m := range edgeMultipliers {
			rate := units.BitsPerSecond(m * float64(c))
			p = append(p, edgeFetch{size: rate.BytesIn(edgePacedIdeal), rate: rate, cell: ci*len(edgeMultipliers) + mi})
		}
	}
	rng.Shuffle(len(u), func(i, j int) { u[i], u[j] = u[j], u[i] })
	rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	var load [edgeConns]units.Bytes
	for _, f := range u {
		c := 0
		for i := range load {
			if load[i] < load[c] {
				c = i
			}
		}
		unpaced[c] = append(unpaced[c], f)
		load[c] += f.size
	}
	for i, f := range p {
		paced[i%edgeConns] = append(paced[i%edgeConns], f)
	}
	return unpaced, paced
}

// layerTiming accumulates the traced run's server-side wrapper timings for
// unpaced requests.
type layerTiming struct {
	mu      sync.Mutex
	admitNs []float64 // outer wrapper → inner wrapper, per request
	serveNs int64     // inner wrapper around cdn.Server.ServeHTTP
	writeNs int64     // ResponseWriter.Write calls into net/http
}

type admitKey struct{}

// edgeServer is the in-process server under test.
type edgeServer struct {
	srv    *http.Server
	url    string
	engine *pacing.Engine
	reg    *obs.Registry
	done   chan error
	timing atomic.Pointer[layerTiming] // nil while untraced
}

func startEdgeServer() (*edgeServer, error) {
	e := &edgeServer{reg: obs.NewRegistry(), engine: pacing.NewEngine(pacing.EngineConfig{}), done: make(chan error, 1)}
	ctrl := overload.New(overload.Config{StallTimeout: 30 * time.Second}, overload.NewMetrics(e.reg))
	handler := &cdn.Server{Engine: e.engine, Metrics: cdn.NewMetrics(e.reg)}
	e.srv = &http.Server{
		Handler:           e.outer(ctrl.Middleware(e.inner(handler))),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
		MaxHeaderBytes:    1 << 20,
	}
	cdn.EnableConnPacing(e.srv)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.url = "http://" + ln.Addr().String()
	go func() { e.done <- e.srv.Serve(ln) }()
	return e, nil
}

// outer stamps the request's arrival before overload admission.
func (e *edgeServer) outer(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if e.timing.Load() != nil {
			r = r.WithContext(context.WithValue(r.Context(), admitKey{}, time.Now()))
		}
		next.ServeHTTP(w, r)
	})
}

// inner times admission (from the outer stamp), the cdn handler and its
// writes into net/http, for unpaced requests.
func (e *edgeServer) inner(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := e.timing.Load()
		arrived, ok := r.Context().Value(admitKey{}).(time.Time)
		if t == nil || !ok || pacing.FromHeader(r.Header) > 0 {
			next.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		tw := &timedWriter{ResponseWriter: w}
		next.ServeHTTP(tw, r)
		serve := time.Since(t0)
		t.mu.Lock()
		t.admitNs = append(t.admitNs, float64(t0.Sub(arrived)))
		t.serveNs += int64(serve)
		t.writeNs += tw.ns
		t.mu.Unlock()
	})
}

// timedWriter times each Write into the underlying ResponseWriter. It
// forwards Flush and exposes Unwrap so http.ResponseController (the stall
// watchdog's write deadlines, kernel pacing) still reaches the connection.
type timedWriter struct {
	http.ResponseWriter
	ns int64
}

func (w *timedWriter) Write(b []byte) (int, error) {
	t0 := time.Now()
	n, err := w.ResponseWriter.Write(b)
	w.ns += int64(time.Since(t0))
	return n, err
}

func (w *timedWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *timedWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// close shuts the server down and waits for Serve to return.
func (e *edgeServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	if serr := <-e.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	e.engine.Close()
	return err
}

// fillerPattern is the expected body content, 'a' + offset mod 26, built
// here rather than taken from cdn.FillerByte.
var fillerPattern = func() []byte {
	b := make([]byte, 64<<10+26)
	for i := range b {
		b[i] = byte('a' + i%26)
	}
	return b
}()

// bodyChecker verifies a streamed body against fillerPattern.
type bodyChecker struct {
	off int64
	bad bool
}

func (c *bodyChecker) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		ph := int(c.off % 26)
		k := min(len(p), len(fillerPattern)-26)
		if !bytes.Equal(p[:k], fillerPattern[ph:ph+k]) {
			c.bad = true
		}
		p = p[k:]
		c.off += int64(k)
	}
	return n, nil
}

// fetchRecord is one completed fetch as the client saw it.
type fetchRecord struct {
	f   edgeFetch
	res cdn.FetchResult
}

// edgeClients are the keep-alive connections driving the server.
type edgeClients struct {
	c      [edgeConns]*cdn.Client
	issued atomic.Int64
	mu     sync.Mutex
	errs   []string // first failed checks, capped
	failed int64
}

func newEdgeClients(url string) *edgeClients {
	ec := &edgeClients{}
	for i := range ec.c {
		ec.c[i] = &cdn.Client{
			HTTP: &http.Client{Transport: &http.Transport{
				DialContext:           (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
				MaxConnsPerHost:       1,
				MaxIdleConnsPerHost:   1,
				DisableCompression:    true,
				ResponseHeaderTimeout: 15 * time.Second,
			}},
			BaseURL: url,
			Retry:   cdn.RetryPolicy{MaxAttempts: 1},
			Seed:    int64(i + 1),
		}
	}
	return ec
}

func (ec *edgeClients) closeIdle() {
	for _, c := range ec.c {
		c.HTTP.CloseIdleConnections()
	}
}

// fail records a failed check.
func (ec *edgeClients) fail(format string, args ...any) {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	if len(ec.errs) < 5 {
		ec.errs = append(ec.errs, fmt.Sprintf(format, args...))
	} else if len(ec.errs) == 5 {
		ec.errs = append(ec.errs, "further failures omitted")
	}
}

// run fetches each connection's list in order, the connections
// concurrently, verifies every response and returns the records.
func (ec *edgeClients) run(lists [edgeConns][]edgeFetch) [edgeConns][]fetchRecord {
	var out [edgeConns][]fetchRecord
	var wg sync.WaitGroup
	for i := range lists {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs := make([]fetchRecord, 0, len(lists[i]))
			for _, f := range lists[i] {
				recs = append(recs, ec.fetch(ec.c[i], f))
			}
			out[i] = recs
		}(i)
	}
	wg.Wait()
	return out
}

// fetch issues one request and checks its body and, when paced, its rate.
func (ec *edgeClients) fetch(c *cdn.Client, f edgeFetch) fetchRecord {
	ec.issued.Add(1)
	var body bodyChecker
	res, err := c.FetchChunkTo(context.Background(), &body, f.size, f.rate)
	rec := fetchRecord{f: f, res: res}
	if err != nil {
		ec.mu.Lock()
		ec.failed++
		ec.mu.Unlock()
		ec.fail("fetch %d bytes at %v: %v", f.size, f.rate, err)
		return rec
	}
	if res.Size != f.size || body.off != int64(f.size) || body.bad {
		ec.fail("fetch %d bytes: got %d (%d streamed), content ok %v", f.size, res.Size, body.off, !body.bad)
	}
	if f.rate > 0 {
		if !res.Paced {
			ec.fail("fetch at %v was not paced", f.rate)
		}
		if allowed := f.rate.BytesIn(res.Duration) + edgeBurst; res.Size > allowed {
			ec.fail("fetch at %v delivered %d bytes in %v, over the pace plus one burst (%d)", f.rate, res.Size, res.Duration, allowed)
		}
	}
	return rec
}

// edgeRun accumulates the timed phase.
type edgeRun struct {
	unpaced           slices
	sliceMB           float64
	ttfbMs            []float64
	clientNs          int64 // unpaced fetch durations
	pacedIdeal        []float64
	pacedActual       []float64 // per grid cell
	pacedBytes        int64
	wakeups, released uint64
	fetches           int64

	// Traced half only.
	layers *layerTiming
	self   map[string]float64 // CPU self ms by module
}

func newEdgeRun() *edgeRun {
	n := len(edgeCaps) * len(edgeMultipliers)
	return &edgeRun{pacedIdeal: make([]float64, n), pacedActual: make([]float64, n)}
}

// rounds runs whole rounds until d has elapsed (at least one).
func (r *edgeRun) rounds(d time.Duration, e *edgeServer, ec *edgeClients, unpaced, paced [edgeConns][]edgeFetch) error {
	end := time.Now().Add(d)
	for first := true; first || time.Now().Before(end); first = false {
		for i := 0; i < edgeUnpacedSlices; i++ {
			var recs [edgeConns][]fetchRecord
			r.unpaced.timeSlice(func() error {
				recs = ec.run(unpaced)
				return nil
			})
			for _, list := range recs {
				for _, rec := range list {
					r.fetches++
					r.ttfbMs = append(r.ttfbMs, rec.res.FirstByte.Seconds()*1000)
					r.clientNs += int64(rec.res.Duration)
				}
			}
		}
		st0 := e.engine.Stats()
		recs := ec.run(paced)
		st1 := e.engine.Stats()
		r.wakeups += st1.Wakeups - st0.Wakeups
		r.released += st1.Released - st0.Released
		for _, list := range recs {
			for _, rec := range list {
				r.fetches++
				r.pacedIdeal[rec.f.cell] += float64(rec.f.size) * 8 / float64(rec.f.rate)
				r.pacedActual[rec.f.cell] += rec.res.Duration.Seconds()
				r.pacedBytes += int64(rec.res.Size)
			}
		}
	}
	return nil
}

// edgeCeilingRate is the lowest requested rate pace_attainment_pct
// averages over: the grid's cells from here up approach or cross the pacing
// engine's ~72 Mbps per-stream ceiling, while the cells below it reach their
// rate (the lowest beat it, by the first burst) and would only dilute it.
const edgeCeilingRate = 40 * units.Mbps

// attainment is the mean over the paced grid's cells at or above
// edgeCeilingRate of each cell's ideal time over its actual time (its
// achieved share of the requested rate), capped at 1, in percent.
func (r *edgeRun) attainment() float64 {
	var sum float64
	var n int
	for ci, c := range edgeCaps {
		for mi, m := range edgeMultipliers {
			if units.BitsPerSecond(m*float64(c)) < edgeCeilingRate {
				continue
			}
			i := ci*len(edgeMultipliers) + mi
			sum += math.Min(1, r.pacedIdeal[i]/r.pacedActual[i])
			n++
		}
	}
	return 100 * sum / float64(n)
}

// printCells writes achieved/requested per requested-rate cell to stderr.
func (r *edgeRun) printCells() {
	type cell struct {
		rate  units.BitsPerSecond
		share float64
	}
	var cells []cell
	for ci, c := range edgeCaps {
		for mi, m := range edgeMultipliers {
			i := ci*len(edgeMultipliers) + mi
			cells = append(cells, cell{units.BitsPerSecond(m * float64(c)), r.pacedIdeal[i] / r.pacedActual[i]})
		}
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].rate < cells[j].rate })
	fmt.Fprintf(os.Stderr, "edge paced cells (requested Mbps: achieved/requested):")
	for _, c := range cells {
		fmt.Fprintf(os.Stderr, " %.1f:%.0f%%", c.rate.Mbps(), 100*c.share)
	}
	fmt.Fprintln(os.Stderr)
}

func runEdge(opts options) (*report, error) {
	rep := &report{}
	unpaced, paced := edgeInputs(opts.seed)
	var sliceBytes int64
	for _, list := range unpaced {
		for _, f := range list {
			sliceBytes += int64(f.size)
		}
	}
	e, err := startEdgeServer()
	if err != nil {
		return nil, err
	}
	ec := newEdgeClients(e.url)
	// Warm-up: opens both connections and grows the buffers and pools.
	for i := 0; i < edgeWarmupSlices; i++ {
		ec.run(unpaced)
	}
	setup := setupDone()

	phase := opts.seconds
	if opts.traced {
		phase /= 2
	}
	untimed := newEdgeRun()
	untimed.sliceMB = float64(sliceBytes) / edgeMB
	runErr := untimed.rounds(phase, e, ec, unpaced, paced)
	rss := maxRSSMB()
	var traced *edgeRun
	if runErr == nil && opts.traced {
		traced = newEdgeRun()
		traced.sliceMB = untimed.sliceMB
		runErr = edgeTraced(opts, e, ec, traced, unpaced, paced)
	}
	ec.closeIdle()
	closeErr := e.close()
	if runErr != nil {
		return nil, runErr
	}
	if closeErr != nil {
		return nil, fmt.Errorf("server shutdown: %w", closeErr)
	}

	rep.attempted = untimed.fetches
	if traced != nil {
		rep.attempted += traced.fetches
	}
	rep.failed = ec.failed
	for _, f := range ec.errs {
		rep.check(false, "%s", f)
	}
	requests := e.reg.Counter("cdn_requests").Value()
	rep.check(requests == ec.issued.Load(), "server counted %d requests, client issued %d", requests, ec.issued.Load())
	shed := e.reg.Counter("overload_shed").Value()
	rep.check(shed == 0, "server shed %d requests", shed)
	untimed.printCells()

	if opts.traced {
		zeroPerLayer(rep)
		edgeLayers(rep, untimed, traced)
		return rep, writeTraceArtifacts(opts, "edge", rep, e.reg, e.engine.Stats())
	}
	fmt.Fprintf(os.Stderr, "edge TTFB over %d unpaced fetches: p50 %.4f ms, p99 %.4f ms\n",
		len(untimed.ttfbMs), quantile(untimed.ttfbMs, 0.5), quantile(untimed.ttfbMs, 0.99))
	rep.set("throughput", untimed.sliceMB/untimed.unpaced.median(), "op/s")
	rep.set("latency_ms", quantile(untimed.ttfbMs, 0.5), "ms")
	rep.set("alloc_kB_per_op", untimed.unpaced.medianAlloc()/1024/untimed.sliceMB, "kB")
	rep.set("max_rss_MB", rss, "MB")
	rep.set("pace_attainment_pct", untimed.attainment(), "%")
	rep.set("setup_s", setup, "s")
	return rep, nil
}

// edgeTraced runs the traced half with the server's layer wrappers on and a
// CPU profile.
func edgeTraced(opts options, e *edgeServer, ec *edgeClients, traced *edgeRun, unpaced, paced [edgeConns][]edgeFetch) error {
	t := &layerTiming{}
	e.timing.Store(t)
	defer e.timing.Store(nil)
	prof, err := startProfile()
	if err != nil {
		return err
	}
	runErr := traced.rounds(opts.seconds/2, e, ec, unpaced, paced)
	self, err := prof.stop(traceFile(opts, "edge", "cpu.pprof"))
	if runErr != nil {
		return runErr
	}
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	traced.layers = t
	traced.self = self
	return nil
}

// edgeLayers reports the per-layer metrics from the traced half, with the
// untraced half as the overhead baseline.
func edgeLayers(rep *report, untimed, traced *edgeRun) {
	unpacedMB := float64(len(traced.unpaced.secs)) * traced.sliceMB
	pacedMB := float64(traced.pacedBytes) / edgeMB
	for m, ms := range traced.self {
		rep.set(m+".self_ms_per_op", ms/(unpacedMB+pacedMB), "ms")
	}
	untimedMB := float64(len(untimed.unpaced.secs)) * untimed.sliceMB
	rep.set("runtime.gc_cycles_per_kop", 1000*float64(untimed.unpaced.gcs)/untimedMB, "count")
	t := traced.layers
	rep.set("overload.admit_us.p50", quantile(t.admitNs, 0.5)/1e3, "us")
	rep.set("cdn.serve_us_per_MB", float64(t.serveNs)/1e3/unpacedMB, "us")
	rep.set("cdn.write_us_per_MB", float64(t.writeNs)/1e3/unpacedMB, "us")
	rep.set("cdn.client_us_per_MB", float64(traced.clientNs-t.serveNs)/1e3/unpacedMB, "us")
	rep.set("pacing.wakeups_per_paced_MB", float64(traced.wakeups)/pacedMB, "count")
	rep.set("pacing.releases_per_paced_MB", float64(traced.released)/pacedMB, "count")
	rep.set("obs.trace_overhead_pct", overheadPct(traced.unpaced.median(), untimed.unpaced.median()), "%")
}
