package fault

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// chaosBody is a next handler serving a fixed 64 KB body in 8 KB writes, so
// mid-body faults have writes to intercept.
var chaosBody = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	buf := []byte(strings.Repeat("x", 8*1024))
	for i := 0; i < 8; i++ {
		w.Write(buf)
		if fl, ok := w.(http.Flusher); ok {
			fl.Flush()
		}
	}
})

// chaosOutcomes fetches the server n times and classifies each response.
func chaosOutcomes(t *testing.T, url string, n int) []string {
	t.Helper()
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		resp, err := http.Get(url)
		if err != nil {
			out = append(out, "connect-error")
			continue
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode != http.StatusOK:
			out = append(out, "status")
		case rerr != nil:
			out = append(out, "reset")
		case len(body) != 64*1024:
			out = append(out, "short")
		default:
			out = append(out, "ok")
		}
	}
	return out
}

func TestChaosDeterministicOutcomes(t *testing.T) {
	cfg := ChaosConfig{
		Seed:            42,
		ErrorProb:       0.3,
		ResetProb:       0.3,
		ResetAfterBytes: 16 * 1024,
	}
	run := func() ([]string, int) {
		chaos, err := NewChaos(cfg, chaosBody)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(chaos)
		defer srv.Close()
		return chaosOutcomes(t, srv.URL, 30), chaos.Injected()
	}
	a, an := run()
	b, bn := run()
	if an != bn {
		t.Fatalf("injection counts differ across identical runs: %d vs %d", an, bn)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d outcome %q vs %q under the same seed", i, a[i], b[i])
		}
	}
	kinds := map[string]int{}
	for _, k := range a {
		kinds[k]++
	}
	if kinds["status"] == 0 || kinds["reset"] == 0 || kinds["ok"] == 0 {
		t.Errorf("expected a mix of errors, resets and successes, got %v", kinds)
	}
	if an != kinds["status"]+kinds["reset"] {
		t.Errorf("Injected() = %d, but observed %d faulty responses", an, kinds["status"]+kinds["reset"])
	}
}

func TestChaosMaxInjectionsStormThenRecovery(t *testing.T) {
	// An error storm capped at 3 injections: after the cap, every request
	// succeeds.
	chaos, err := NewChaos(ChaosConfig{Seed: 1, ErrorProb: 1, MaxInjections: 3}, chaosBody)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(chaos)
	defer srv.Close()
	out := chaosOutcomes(t, srv.URL, 8)
	want := []string{"status", "status", "status", "ok", "ok", "ok", "ok", "ok"}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("request %d: %q, want %q (storm of 3 then recovery)", i, out[i], want[i])
		}
	}
	if chaos.Injected() != 3 {
		t.Errorf("Injected() = %d, want 3", chaos.Injected())
	}
}

func TestChaosResetDeliversExactPrefix(t *testing.T) {
	chaos, err := NewChaos(ChaosConfig{Seed: 1, ResetProb: 1, ResetAfterBytes: 20_000}, chaosBody)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(chaos)
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, rerr := io.ReadAll(resp.Body)
	if rerr == nil {
		t.Fatal("reset injection delivered a clean body")
	}
	if len(body) != 20_000 {
		t.Errorf("delivered prefix = %d bytes, want exactly 20000", len(body))
	}
}

func TestChaosTimelineBlackout(t *testing.T) {
	// A blackout covering t=0..10s: every request during it is aborted.
	chaos, err := NewChaos(ChaosConfig{
		Timeline: MustTimeline(Phase{Start: 0, Duration: 10 * time.Second, Multiplier: 0}),
	}, chaosBody)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(chaos)
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		t.Fatal("request during a blackout succeeded")
	}
	if chaos.Injected() == 0 {
		t.Error("blackout not counted as an injection")
	}
}

func TestChaosInjectedElapsedClock(t *testing.T) {
	// A blackout scripted for virtual t=10s..20s. With ChaosConfig.Elapsed
	// injected, the virtual clock — not the wall clock — decides which
	// requests the blackout swallows, so two runs with the same seed and
	// the same clock script classify identically however long the real
	// requests take.
	ticks := []time.Duration{
		0, 5 * time.Second, // before the blackout
		10 * time.Second, 15 * time.Second, // inside [10s, 20s)
		20 * time.Second, 25 * time.Second, // after it ends
	}
	run := func() []string {
		// The handler goroutine reads the clock the test goroutine sets.
		var now atomic.Int64
		chaos, err := NewChaos(ChaosConfig{
			Seed:     7,
			Timeline: MustTimeline(Phase{Start: 10 * time.Second, Duration: 10 * time.Second, Multiplier: 0}),
			Elapsed:  func() time.Duration { return time.Duration(now.Load()) },
		}, chaosBody)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(chaos)
		defer srv.Close()
		var out []string
		for _, tick := range ticks {
			now.Store(int64(tick))
			out = append(out, chaosOutcomes(t, srv.URL, 1)...)
		}
		return out
	}
	first, second := run(), run()
	want := []string{"ok", "ok", "connect-error", "connect-error", "ok", "ok"}
	if strings.Join(first, ",") != strings.Join(want, ",") {
		t.Errorf("outcomes with injected clock = %v, want %v", first, want)
	}
	if strings.Join(first, ",") != strings.Join(second, ",") {
		t.Errorf("identical seed+clock runs diverged: %v vs %v", first, second)
	}
}

func TestChaosValidation(t *testing.T) {
	if _, err := NewChaos(ChaosConfig{ErrorProb: 1.5}, chaosBody); err == nil {
		t.Error("out-of-range probability accepted")
	}
	if _, err := NewChaos(ChaosConfig{}, nil); err == nil {
		t.Error("nil next handler accepted")
	}
}
