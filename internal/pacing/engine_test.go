package pacing

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/units"
)

// TestEnginePacesSingleStream checks end-to-end wall-clock pacing through
// Await: 60 bursts of 6 KB at 8 Mbps should take ≈354 ms (the first burst
// is free) and never finish early.
func TestEnginePacesSingleStream(t *testing.T) {
	defer leakcheck.Check(t)
	e := NewEngine(EngineConfig{})
	defer e.Close()
	s := e.Register(8*units.Mbps, 6000)
	defer s.Close()

	const bursts = 60
	start := time.Now() //sammy:nondeterministic-ok: real-time engine test measures actual wakeup latency against the wall clock
	for i := 0; i < bursts; i++ {
		if err := s.Await(context.Background(), 6000); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start) //sammy:nondeterministic-ok: real-time engine test measures actual wakeup latency against the wall clock
	want := (8 * units.Mbps).TimeToSend(6000 * (bursts - 1))
	if elapsed < want*9/10 {
		t.Errorf("finished in %v, faster than the pace allows (want ≥ %v)", elapsed, want*9/10)
	}
	if elapsed > want*2 {
		t.Errorf("finished in %v, want ≈ %v", elapsed, want)
	}
	if s.Waited() <= 0 {
		t.Error("stream reports zero waited time")
	}
}

// TestEngineWakeCreditConvergence is the coarse-timer drift regression: the
// wheel quantizes every deadline up to a 2 ms slot (a deliberately coarse,
// always-oversleeping timer), yet sustained throughput must converge to the
// requested rate within 1% because the token bucket credits the oversleep
// back at each refill.
func TestEngineWakeCreditConvergence(t *testing.T) {
	defer leakcheck.Check(t)
	e := NewEngine(EngineConfig{Slot: 2 * time.Millisecond})
	defer e.Close()
	const (
		rate  = 16 * units.Mbps
		burst = 4000 // 2 ms of tokens: every park oversleeps by up to a full period
	)
	s := e.Register(rate, burst)
	defer s.Close()

	var sent units.Bytes
	start := time.Now()                     //sammy:nondeterministic-ok: real-time engine test measures actual wakeup latency against the wall clock
	for time.Since(start) < 2*time.Second { //sammy:nondeterministic-ok: real-time engine test measures actual wakeup latency against the wall clock
		if err := s.Await(context.Background(), burst); err != nil {
			t.Fatal(err)
		}
		sent += burst
	}
	elapsed := time.Since(start)           //sammy:nondeterministic-ok: real-time engine test measures actual wakeup latency against the wall clock
	got := units.Rate(sent-burst, elapsed) // first burst is free
	errPct := 100 * (float64(got) - float64(rate)) / float64(rate)
	t.Logf("achieved %.3f Mbps vs %.3f requested (%.2f%% error) over %v", got.Mbps(), rate.Mbps(), errPct, elapsed)
	if errPct > 1 || errPct < -1 {
		t.Errorf("sustained rate error %.2f%% exceeds 1%%", errPct)
	}
}

// TestPacerWakeCreditExact drives the raw token bucket with a deliberately
// oversleeping injected clock. With wake credit the long-run rate error
// must stay under 1%; without it the same schedule drifts well below the
// requested rate, which is the bug being pinned.
func TestPacerWakeCreditExact(t *testing.T) {
	const (
		rate      = 8 * units.Mbps
		burst     = units.Bytes(6000)
		oversleep = 10 * time.Millisecond // far beyond the 6 ms burst period
		total     = units.Bytes(12e6)     // ≈12 s simulated
	)
	withCredit := runWithOversleep(t, rate, burst, oversleep, total, true)
	withoutCredit := runWithOversleep(t, rate, burst, oversleep, total, false)
	t.Logf("rate error: %.2f%% with wake credit, %.2f%% without", withCredit, withoutCredit)
	if withCredit > 1 || withCredit < -1 {
		t.Errorf("with wake credit: rate error %.2f%%, want within 1%%", withCredit)
	}
	if withoutCredit > -5 {
		t.Errorf("without wake credit: rate error %.2f%%, expected <-5%% drift (is the regression fixture still oversleeping?)", withoutCredit)
	}
}

// runWithOversleep plays a paced send loop against a virtual clock whose
// every sleep overshoots by oversleep, returning the percentage rate error.
func runWithOversleep(t *testing.T, rate units.BitsPerSecond, burst units.Bytes, oversleep time.Duration, total units.Bytes, credit bool) float64 {
	t.Helper()
	p := NewPacer(rate, burst)
	if credit {
		p.EnableWakeCredit()
	}
	var now time.Duration
	var sent units.Bytes
	for sent < total {
		if d := p.Delay(now, burst); d > 0 {
			now += d + oversleep
		}
		sent += burst
	}
	got := units.Rate(sent, now)
	return 100 * (float64(got) - float64(rate)) / float64(rate)
}

// TestPacerDefaultSemanticsUnchanged pins the virtual-clock Pacer's exact
// historical arithmetic with wake credit off: the simulated transports'
// golden traces depend on it.
func TestPacerDefaultSemanticsUnchanged(t *testing.T) {
	p := NewPacer(8*units.Mbps, 6000)
	// Burst empties the bucket; deficit priced at the rate.
	if d := p.Delay(0, 6000); d != 0 {
		t.Fatalf("first burst delayed %v", d)
	}
	if d := p.Delay(0, 6000); d != 6*time.Millisecond {
		t.Fatalf("deficit delay = %v, want 6ms", d)
	}
	// Waking 10 ms late (4 ms past the deadline): a plain bucket refills
	// those 4 ms of tokens but caps at burst, so the next burst leaves
	// tokens at exactly 10ms*1MBps - 6000 - 6000 = -2000 → 2 ms delay.
	if d := p.Delay(10*time.Millisecond, 6000); d != 2*time.Millisecond {
		t.Fatalf("post-oversleep delay = %v, want 2ms (token cap must not stretch by default)", d)
	}
}

// TestEngineChurn exercises register/unregister/re-rate mid-flight from
// many goroutines; run under -race it is the engine's concurrency test.
func TestEngineChurn(t *testing.T) {
	defer leakcheck.Check(t)
	e := NewEngine(EngineConfig{Slot: time.Millisecond})
	defer e.Close()

	const workers = 64
	ctx, cancel := context.WithTimeout(context.Background(), 800*time.Millisecond)
	defer cancel()
	var wg sync.WaitGroup
	var bursts atomic.Int64
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for ctx.Err() == nil {
				rate := units.BitsPerSecond(1+rng.Intn(50)) * units.Mbps
				s := e.Register(rate, 1500)
				for j := 0; j < rng.Intn(20); j++ {
					if err := s.Await(ctx, 1500); err != nil {
						break
					}
					bursts.Add(1)
					if rng.Intn(4) == 0 {
						s.SetRate(units.BitsPerSecond(1+rng.Intn(50))*units.Mbps, 1500)
					}
				}
				s.Close()
			}
		}(int64(i))
	}
	wg.Wait()
	if bursts.Load() == 0 {
		t.Fatal("no bursts completed")
	}
	st := e.Stats()
	if st.Parked != 0 {
		t.Errorf("streams still parked after churn: %+v", st)
	}
	if st.Streams != 0 {
		t.Errorf("streams still registered after churn: %+v", st)
	}
}

// TestEngineAwaitCancel checks both cancellation races: a stream still
// parked in its slot, and one whose release was committed concurrently
// with the cancel. Either way Await returns promptly with ctx.Err() and
// the wheel is left clean.
func TestEngineAwaitCancel(t *testing.T) {
	defer leakcheck.Check(t)
	e := NewEngine(EngineConfig{})
	defer e.Close()
	s := e.Register(100*units.Kbps, 1500) // 1500 B burst ≈ 120 ms/park
	defer s.Close()

	if err := s.Await(context.Background(), 1500); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now() //sammy:nondeterministic-ok: real-time engine test measures actual wakeup latency against the wall clock
	err := s.Await(ctx, 1500)
	if err != context.DeadlineExceeded {
		t.Fatalf("Await under cancelled ctx = %v, want DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond { //sammy:nondeterministic-ok: real-time engine test measures actual wakeup latency against the wall clock
		t.Errorf("cancelled Await took %v, want prompt return", d)
	}
	if st := e.Stats(); st.Parked != 0 {
		t.Errorf("stream left parked after cancel: %+v", st)
	}
	// The refunded reservation must not have corrupted the bucket: the next
	// burst is paced, not free beyond the burst size.
	if err := s.Await(context.Background(), 1500); err != nil {
		t.Fatal(err)
	}
}

// TestEngineCloseReleasesParked checks drain semantics: Close releases a
// parked stream with ErrEngineClosed and leaves zero engine goroutines.
func TestEngineCloseReleasesParked(t *testing.T) {
	defer leakcheck.Check(t)
	e := NewEngine(EngineConfig{})
	s := e.Register(10*units.Kbps, 1500) // ≈1.2 s/park: definitely parked when we close
	errc := make(chan error, 1)
	go func() {
		s.Await(context.Background(), 1500) // free first burst
		errc <- s.Await(context.Background(), 1500)
	}()
	time.Sleep(50 * time.Millisecond)
	e.Close()
	select {
	case err := <-errc:
		if err != ErrEngineClosed {
			t.Fatalf("Await during Close = %v, want ErrEngineClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Await not released by Close")
	}
	if err := s.Await(context.Background(), 1500); err != ErrEngineClosed {
		t.Errorf("Await after Close = %v, want ErrEngineClosed", err)
	}
	if s2 := e.Register(units.Mbps, 1500); s2.Await(context.Background(), 1500) != ErrEngineClosed {
		t.Error("Register after Close returned a live stream")
	}
}

// TestEngineIdleHoldsNoGoroutines checks the on-demand runner lifecycle:
// streams closing takes the engine back to zero goroutines without Close.
func TestEngineIdleHoldsNoGoroutines(t *testing.T) {
	defer leakcheck.Check(t)
	e := NewEngine(EngineConfig{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := e.Register(50*units.Mbps, 6000)
			defer s.Close()
			for j := 0; j < 10; j++ {
				if err := s.Await(context.Background(), 6000); err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	// leakcheck's deferred Check (5 s grace) asserts the runners exited.
}

// TestEngineDeterministicRelease drives two manual (virtual-clock) wheels
// through an identical 1k-stream schedule and requires the FNV-64a hash of
// the release order to match: wheel sweeps are slot-then-FIFO ordered with
// no dependence on goroutine scheduling or the wall clock.
func TestEngineDeterministicRelease(t *testing.T) {
	run := func() uint64 {
		e := NewEngine(EngineConfig{Wheels: 1, Slot: time.Millisecond, Slots: 256, manual: true})
		w := e.wheels[0]
		const streams = 1000
		ss := make([]*Stream, streams)
		for i := range ss {
			// Distinct rates, many slot collisions: stream i sends 1500 B
			// every 1500/(i%40+1) ms.
			ss[i] = e.Register(units.BitsPerSecond(i%40+1)*units.Mbps, 1500)
		}
		h := fnv.New64a()
		idx := make(map[*Stream]int, streams)
		for i, s := range ss {
			idx[s] = i
		}
		park := func(s *Stream, now time.Duration) {
			w.mu.Lock()
			defer w.mu.Unlock()
			if d := s.pacer.Delay(now, 1500); d > 0 {
				w.insertLocked(s, w.tickAfter(now, d), now)
			}
		}
		for _, s := range ss {
			park(s, 0) // free burst
			park(s, 0) // parks at the rate's deadline
		}
		for now := time.Millisecond; now <= 200*time.Millisecond; now += time.Millisecond {
			for _, s := range w.advanceTo(now) {
				fmt.Fprintf(h, "%d@%d,", idx[s], now/time.Millisecond)
				park(s, now) // immediately re-park the next burst
			}
		}
		return h.Sum64()
	}
	h1, h2 := run(), run()
	if h1 != h2 {
		t.Fatalf("release order not deterministic: %x vs %x", h1, h2)
	}
	if h1 == fnv.New64a().Sum64() {
		t.Fatal("no releases hashed; schedule never parked anything")
	}
}

// TestEngineSetRateRekeysParked re-rates a parked stream and checks the
// wait reflects the new rate, both speeding up and releasing immediately.
func TestEngineSetRateRekeysParked(t *testing.T) {
	defer leakcheck.Check(t)
	e := NewEngine(EngineConfig{})
	defer e.Close()

	// Parked at a slow rate, then re-keyed to a fast one: the release must
	// arrive on the fast schedule.
	s := e.Register(10*units.Kbps, 1500) // ≈1.2 s/park
	if err := s.Await(context.Background(), 1500); err != nil {
		t.Fatal(err)
	}
	done := make(chan time.Duration, 1)
	start := time.Now() //sammy:nondeterministic-ok: real-time engine test measures actual wakeup latency against the wall clock
	go func() {
		s.Await(context.Background(), 1500)
		done <- time.Since(start) //sammy:nondeterministic-ok: real-time engine test measures actual wakeup latency against the wall clock
	}()
	time.Sleep(30 * time.Millisecond)
	s.SetRate(10*units.Mbps, 1500) // deficit now clears in ≈1 ms
	select {
	case d := <-done:
		if d > 500*time.Millisecond {
			t.Errorf("re-keyed release took %v, still on the old schedule", d)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("re-keyed stream never released")
	}
	s.Close()

	// Re-rating to unpaced releases a parked stream immediately.
	s2 := e.Register(10*units.Kbps, 1500)
	defer s2.Close()
	if err := s2.Await(context.Background(), 1500); err != nil {
		t.Fatal(err)
	}
	done2 := make(chan struct{})
	go func() {
		s2.Await(context.Background(), 1500)
		close(done2)
	}()
	time.Sleep(30 * time.Millisecond)
	s2.SetRate(NoPacing, 0)
	select {
	case <-done2:
	case <-time.After(2 * time.Second):
		t.Fatal("unpacing a parked stream did not release it")
	}
}

// TestAwaitFastPathAllocs pins the steady-state Await fast path (tokens
// available) at zero allocations.
func TestAwaitFastPathAllocs(t *testing.T) {
	e := NewEngine(EngineConfig{})
	defer e.Close()
	s := e.Register(units.Gbps, 1<<20)
	defer s.Close()
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		if err := s.Await(ctx, 100); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Await fast path allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkPacingEngineWakeups10k and BenchmarkPacingSleepWakeups10k live
// in enginebench_test.go.
