package cdn

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/overload"
	"repro/internal/pacing"
	"repro/internal/units"
)

// startOverloadServer runs a real http.Server on loopback with the chunk
// handler behind the overload middleware, plus /healthz and /readyz. It
// returns the controller (for metrics and drain control), a client wired
// with a fast retry policy, and the server itself so tests can drive
// Shutdown directly.
func startOverloadServer(t *testing.T, cfg overload.Config, inner http.Handler) (*overload.Controller, *Client, *http.Server) {
	t.Helper()
	ctrl := overload.New(cfg, overload.NewMetrics(obs.NewRegistry()))
	mux := http.NewServeMux()
	mux.Handle("/", ctrl.Middleware(inner))
	mux.HandleFunc("/healthz", ctrl.Healthz)
	mux.HandleFunc("/readyz", ctrl.Readyz)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	//sammy:server-ok: stall-injection test; WriteTimeout would kill the deliberately slow responses under test
	srv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       60 * time.Second,
		MaxHeaderBytes:    1 << 20,
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	hc := &http.Client{Timeout: 30 * time.Second}
	t.Cleanup(hc.CloseIdleConnections)
	client := &Client{HTTP: hc, BaseURL: "http://" + ln.Addr().String(), Seed: 1, Retry: RetryPolicy{
		MaxAttempts: 12,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  100 * time.Millisecond, // clamps any server Retry-After hint
	}}
	return ctrl, client, srv
}

// countingHandler tracks how many requests are concurrently inside the
// wrapped handler — i.e. past admission — and the high-water mark.
type countingHandler struct {
	http.Handler
	cur, peak atomic.Int64
}

func (h *countingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	cur := h.cur.Add(1)
	for {
		p := h.peak.Load()
		if cur <= p || h.peak.CompareAndSwap(p, cur) {
			break
		}
	}
	defer h.cur.Add(-1)
	h.Handler.ServeHTTP(w, r)
}

// TestOverloadStorm is the load-storm acceptance test: many concurrent
// fetchers against a deliberately small admission window. The server must
// never let more than MaxInFlight requests past admission, must shed the
// overflow with 503 + Retry-After, and every fetcher must still complete
// via honoured retries.
func TestOverloadStorm(t *testing.T) {
	leakcheck.Check(t)
	scn, err := fault.LookupScenario("load-storm")
	if err != nil {
		t.Fatal(err)
	}
	st := scn.Storm
	if !st.Enabled() {
		t.Fatal("load-storm scenario has no storm config")
	}
	counter := &countingHandler{Handler: &Server{}}
	ctrl, client, srv := startOverloadServer(t, overload.Config{
		MaxInFlight:  st.MaxInFlight,
		MaxQueue:     st.MaxQueue,
		QueueTimeout: st.QueueTimeout,
		RetryAfter:   st.RetryAfter, // 1 s on the wire; the client clamps to 100 ms
	}, counter)

	// Shrink the per-stream work from the preset so the test stays fast:
	// 64 KB at 20 Mbps is ~26 ms of residency per admitted stream.
	const chunk = 64 * units.KB
	rate := units.BitsPerSecond(st.PaceRateBps)

	var wg sync.WaitGroup
	var failures atomic.Int64
	for i := 0; i < st.Fetchers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := client.FetchChunk(context.Background(), chunk, rate)
			if err != nil {
				failures.Add(1)
				t.Errorf("fetcher %d: %v", i, err)
				return
			}
			if res.Size != chunk {
				t.Errorf("fetcher %d: size = %v", i, res.Size)
			}
		}(i)
	}
	wg.Wait()
	// A fetcher can read its last byte before its handler releases the
	// admission slot; Shutdown waits for every handler to return.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	if peak := counter.peak.Load(); peak > int64(st.MaxInFlight) {
		t.Errorf("peak in-flight %d exceeded the admission limit %d", peak, st.MaxInFlight)
	}
	m := ctrl.Metrics
	if m.Shed.Value() == 0 {
		t.Error("no request was shed; the storm did not overload the window")
	}
	if got := m.Admitted.Value(); got != int64(st.Fetchers) {
		t.Errorf("admitted = %d, want exactly %d successful admissions", got, st.Fetchers)
	}
	if ctrl.InFlight() != 0 || ctrl.Queued() != 0 {
		t.Errorf("controller not drained after storm: inflight %d, queued %d", ctrl.InFlight(), ctrl.Queued())
	}
	if failures.Load() > 0 {
		t.Errorf("%d fetchers failed; retries with Retry-After should recover all of them", failures.Load())
	}
}

// TestOverloadShedsWithRetryAfterHeader checks the raw shed response the
// storm clients recover from: 503, a Retry-After the scenario configured,
// and the shed-reason header.
func TestOverloadShedsWithRetryAfterHeader(t *testing.T) {
	leakcheck.Check(t)
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	blocked := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		started <- struct{}{}
		<-release
	})
	_, client, _ := startOverloadServer(t, overload.Config{
		MaxInFlight: 1,
		MaxQueue:    -1, // no queue: second request sheds immediately
		RetryAfter:  2 * time.Second,
	}, blocked)
	defer close(release)

	go func() {
		// Occupies the only admission slot until release closes.
		resp, err := client.HTTP.Get(client.BaseURL + "/chunk?size=1000")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started

	resp, err := client.HTTP.Get(client.BaseURL + "/chunk?size=1000")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", got)
	}
	if got := resp.Header.Get("X-Sammy-Shed"); got != overload.ReasonQueueFull {
		t.Errorf("X-Sammy-Shed = %q, want %q", got, overload.ReasonQueueFull)
	}
}

// TestServerDrain exercises the graceful-shutdown path: with a paced chunk
// in flight, draining must flip /readyz to 503, shed new work with the
// draining reason, and still let the in-flight stream finish before
// Shutdown returns.
func TestServerDrain(t *testing.T) {
	leakcheck.Check(t)
	ctrl, client, srv := startOverloadServer(t, overload.Config{
		MaxInFlight: 4,
		MaxQueue:    4,
	}, &Server{})

	// A paced fetch that stays in flight for ~400 ms.
	fetchDone := make(chan error, 1)
	go func() {
		_, err := client.FetchChunk(context.Background(), 400*units.KB, 8*units.Mbps)
		fetchDone <- err
	}()
	waitFor(t, func() bool { return ctrl.InFlight() == 1 })

	// Flip to draining while the stream is mid-flight. The listener is
	// still open (Shutdown has not run), so probes and new requests reach
	// the server and see the draining state.
	ctrl.StartDraining()

	resp, err := client.HTTP.Get(client.BaseURL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz while draining = %d, want 503", resp.StatusCode)
	}

	resp, err = client.HTTP.Get(client.BaseURL + "/chunk?size=1000")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("new request while draining = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Sammy-Shed"); got != overload.ReasonDraining {
		t.Errorf("X-Sammy-Shed = %q, want %q", got, overload.ReasonDraining)
	}

	// Graceful shutdown must wait for the paced stream, not cut it off.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("Shutdown during drain: %v", err)
	}
	if err := <-fetchDone; err != nil {
		t.Errorf("in-flight paced fetch was cut off by drain: %v", err)
	}
	if ctrl.InFlight() != 0 {
		t.Errorf("in-flight = %d after drain", ctrl.InFlight())
	}
}

// TestSlowReaderKilled pins a wedged client against the write-stall
// watchdog: a reader that requests a large chunk and then stops reading
// must be killed once no write progresses for StallTimeout, freeing the
// connection and its admission slot.
func TestSlowReaderKilled(t *testing.T) {
	leakcheck.Check(t)
	ctrl, client, _ := startOverloadServer(t, overload.Config{
		MaxInFlight:  2,
		StallTimeout: 200 * time.Millisecond,
	}, &Server{})

	addr := client.BaseURL[len("http://"):]
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Ask for 32 MB unpaced, read a token amount, then stop. The kernel
	// socket buffers fill, the server's writes stop progressing, and the
	// watchdog's per-write deadline fires.
	fmt.Fprintf(conn, "GET /chunk?size=%d HTTP/1.1\r\nHost: %s\r\n\r\n", 32*units.MB, addr)
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if _, err := io.ReadFull(resp.Body, make([]byte, 16*1024)); err != nil {
		t.Fatal(err)
	}
	// Stop reading. No progress from here on.

	deadline := time.Now().Add(10 * time.Second)
	for ctrl.Metrics.StallKills.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stall watchdog never killed the wedged stream")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The admission slot must come back once the handler unwinds.
	waitFor(t, func() bool { return ctrl.InFlight() == 0 })

	// A healthy client is still served after the kill.
	res, err := client.FetchChunk(context.Background(), 100*units.KB, pacing.NoPacing)
	if err != nil {
		t.Fatalf("fetch after stall kill: %v", err)
	}
	if res.Size != 100*units.KB {
		t.Errorf("size = %v", res.Size)
	}
}

// waitFor polls cond until it holds or a generous deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
