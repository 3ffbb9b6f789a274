package cdn

import (
	"context"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/units"
)

func TestServerMetricsRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	reg.SetRecorder(obs.NewRecorder(64))
	m := NewMetrics(reg)
	srv, client := newTestServerWith(t, &Server{Metrics: m})

	const size = 200 * units.KB
	res, err := client.FetchChunk(context.Background(), size, 8*units.Mbps)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Paced {
		t.Fatal("fetch not paced")
	}

	// A rejected request bumps the bad counter, not the failed counter.
	resp, err := srv.Client().Get(srv.URL + "/chunk?size=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// The handler records bytes served after its last write, which the
	// client can read first; Close waits for every handler to return.
	srv.Close()

	if got := m.Requests.Value(); got != 1 {
		t.Errorf("cdn_requests = %d, want 1", got)
	}
	if got := m.PacedRequests.Value(); got != 1 {
		t.Errorf("cdn_paced_requests = %d, want 1", got)
	}
	if got := m.UserPaced.Value() + m.KernelPaced.Value(); got != 1 {
		t.Errorf("paced-by counters sum to %d, want 1", got)
	}
	if got := m.BytesServed.Value(); got != int64(size) {
		t.Errorf("cdn_bytes_served = %d, want %d", got, int64(size))
	}
	if got := m.RequestsFailed.Value(); got != 0 {
		t.Errorf("cdn_requests_failed = %d, want 0", got)
	}

	// The pacing histograms saw the request: one pace-rate sample at 8 Mbps,
	// and (for the user-space pacer) at least one sleep.
	if got := m.PaceRateMbps.Count(); got != 1 {
		t.Errorf("cdn_pace_rate_mbps count = %d, want 1", got)
	}
	if got := m.PaceRateMbps.Mean(); got < 7.9 || got > 8.1 {
		t.Errorf("cdn_pace_rate_mbps mean = %g, want ≈8", got)
	}
	if m.KernelPaced.Value() == 0 && m.PacerSleepMs.Count() == 0 {
		t.Error("user-space paced request recorded no pacer sleeps")
	}
	if got := m.ResponseBytes.Count(); got != 1 {
		t.Errorf("cdn_response_bytes count = %d, want 1", got)
	}

	// Event trace carries the request.
	events := reg.Recorder().Events()
	var sawRequest bool
	for _, ev := range events {
		if ev.Type == "cdn_request" && ev.V == float64(size) {
			sawRequest = true
		}
	}
	if !sawRequest {
		t.Errorf("no cdn_request event for size %d in %d events", int64(size), len(events))
	}

	if got := m.RequestsBad.Value(); got != 1 {
		t.Errorf("cdn_requests_bad = %d, want 1", got)
	}
	if got := m.RequestsFailed.Value(); got != 0 {
		t.Errorf("cdn_requests_failed = %d after 4xx, want 0", got)
	}
}

func TestClientDisconnectCountsAsFailed(t *testing.T) {
	reg := obs.NewRegistry()
	reg.SetRecorder(obs.NewRecorder(16))
	m := NewMetrics(reg)
	_, client := newTestServerWith(t, &Server{Metrics: m})

	// 4 MB at 2 Mbps would take 16 s; cancel mid-body so the server's write
	// path sees the disconnect (the writeFiller error propagation fix).
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	if _, err := client.FetchChunk(ctx, 4*units.MB, 2*units.Mbps); err == nil {
		t.Fatal("expected fetch to fail after cancellation")
	}

	// The handler notices the broken connection asynchronously.
	deadline := time.Now().Add(10 * time.Second)
	for m.RequestsFailed.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := m.RequestsFailed.Value(); got != 1 {
		t.Errorf("cdn_requests_failed = %d, want 1", got)
	}
	if got := m.RequestsBad.Value(); got != 0 {
		t.Errorf("cdn_requests_bad = %d, want 0 (disconnects are not 4xx)", got)
	}
	events := reg.Recorder().Events()
	var sawDisconnect bool
	for _, ev := range events {
		if ev.Type == "cdn_disconnect" {
			sawDisconnect = true
		}
	}
	if !sawDisconnect {
		t.Errorf("no cdn_disconnect event in %d events", len(events))
	}
}
