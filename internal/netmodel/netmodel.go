// Package netmodel is an analytic per-chunk TCP path model used for
// population-scale A/B experiments, where the packet-level simulator in
// package sim would be needlessly slow. It models what the paper's
// production measurements capture per chunk download: how long the download
// took, how many bytes were retransmitted, and what RTTs the connection's
// packets saw.
//
// The model is a round-based abstraction of TCP Reno on a drop-tail
// bottleneck:
//
//   - below capacity (paced), the flow rides at the pace rate after a
//     slow-start ramp, the queue stays empty, RTT sits at the base and
//     losses are negligible — the Fig 7 "Sammy" regime;
//   - at or above capacity (unpaced, or pace above capacity), slow start
//     overshoots the pipe, drop-tail losses cut the window, and congestion
//     avoidance saws between W/2 and W with the queue partially full —
//     the Fig 7 "control" regime with inflated RTTs and retransmits.
//
// Integration tests validate the model's regimes against the packet-level
// simulator.
package netmodel

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/fault"
	trace "repro/internal/obs/trace"
	"repro/internal/units"
)

// Path describes one user's bottleneck path. Fields are immutable after
// construction; connections carry the mutable state.
type Path struct {
	// Capacity is the bottleneck (access link) rate. Required.
	Capacity units.BitsPerSecond
	// BaseRTT is the uncongested round-trip time. Default 30 ms.
	BaseRTT time.Duration
	// QueueBytes is the bottleneck buffer size. Default 1.5×BDP at
	// BaseRTT, a common access-link provisioning.
	QueueBytes units.Bytes
	// MSS is the segment size. Default 1500 B.
	MSS units.Bytes
	// BaseLossRate is the residual random loss independent of congestion
	// (transmission errors, cross-traffic transients). Default 2e-4.
	BaseLossRate float64
	// ThroughputJitter is the lognormal σ of per-chunk available-bandwidth
	// variation. Default 0.15.
	ThroughputJitter float64
	// AmbientQueueDelay is extra round-trip delay from queues this flow does
	// not control (cross traffic at the access link, upstream congestion).
	// It affects paced and unpaced downloads alike, which is what keeps the
	// paper's RTT improvement at -14% rather than a collapse to the
	// propagation floor. Default 0.
	AmbientQueueDelay time.Duration
	// DropoutProb is the per-chunk probability that available bandwidth
	// collapses for the duration of the download (wifi interference, a
	// congestion spike) to DropoutFactor of nominal. Dropouts are what make
	// real populations rebuffer occasionally; they hit paced and unpaced
	// sessions alike. Default 0 (off).
	DropoutProb float64
	// DropoutFactor is the capacity multiplier during a dropout; default
	// 0.05 when DropoutProb is set.
	DropoutFactor float64
	// OnsetBurstLoss calibrates the drops caused by each on-period's first
	// flight: after an off period an unpaced sender blasts a full window at
	// line rate into a mostly-empty queue (the burstiness §5.6 measures).
	// The excess over the buffer is dropped, scaled by this fraction
	// (self-clocking and burst limits absorb the rest). Paced downloads
	// spread the flight and avoid it entirely. Default 0 (off).
	OnsetBurstLoss float64
	// Faults, when set, injects scripted pathologies on top of the analytic
	// model: a Gilbert-Elliott burst-loss chain (instantiated per connection
	// from the connection's RNG, replacing the i.i.d.-only BaseLossRate
	// picture) and a capacity timeline whose blackouts stall downloads and
	// whose step drops scale available bandwidth. Default nil (off).
	Faults *fault.Profile
}

func (p Path) withDefaults() Path {
	if p.BaseRTT <= 0 {
		p.BaseRTT = 30 * time.Millisecond
	}
	if p.MSS <= 0 {
		p.MSS = 1500
	}
	if p.QueueBytes <= 0 {
		p.QueueBytes = units.Bytes(1.5 * float64(p.Capacity.BytesIn(p.BaseRTT)))
	}
	if p.BaseLossRate <= 0 {
		p.BaseLossRate = 2e-4
	}
	if p.ThroughputJitter <= 0 {
		p.ThroughputJitter = 0.15
	}
	if p.DropoutProb > 0 && p.DropoutFactor <= 0 {
		p.DropoutFactor = 0.05
	}
	return p
}

// Result summarizes one chunk download.
type Result struct {
	Duration   time.Duration // request to last byte (includes Stalled)
	FirstByte  time.Duration // request to first byte (includes Stalled)
	Bytes      units.Bytes   // payload bytes (the chunk size)
	SentBytes  units.Bytes   // payload + retransmissions
	RetxBytes  units.Bytes   // retransmitted bytes
	MeanRTT    time.Duration // mean RTT experienced during the download
	Packets    int64         // data packets carried
	Throughput units.BitsPerSecond
	// Stalled is time spent waiting out a scripted blackout before the
	// transfer could make progress (0 without a fault timeline).
	Stalled time.Duration
}

// TraceAttrs copies the download's summary onto sp as span attributes for
// the "netmodel.download" span. Nil-safe.
func (r Result) TraceAttrs(sp *trace.Span) {
	if sp == nil {
		return
	}
	sp.SetAttr("bytes", float64(r.Bytes)).
		SetAttr("sent_bytes", float64(r.SentBytes)).
		SetAttr("retx_bytes", float64(r.RetxBytes)).
		SetAttr("mean_rtt_ms", r.MeanRTT.Seconds()*1000).
		SetAttr("tput_bps", float64(r.Throughput))
	if r.Stalled > 0 {
		sp.SetAttr("stalled_s", r.Stalled.Seconds())
	}
}

// Conn is a persistent connection over a Path, carrying congestion state
// (cwnd) across sequential chunk downloads the way a real player's
// persistent HTTP connection does.
type Conn struct {
	path Path
	rng  *rand.Rand
	ge   *fault.GilbertElliott // per-connection burst-loss chain, nil when off

	cwndSegs    float64 // congestion window, segments
	ssthresh    float64 // slow-start threshold, segments
	established bool
	chunks      int64         // downloads completed on this connection
	clock       time.Duration // connection time, advanced by Download
}

// NewConn returns a connection over p using rng for stochastic components.
// rng must not be nil.
func NewConn(p Path, rng *rand.Rand) *Conn {
	c := new(Conn)
	c.Reset(p, rng)
	return c
}

// Reset turns c into a fresh connection over p, exactly as NewConn would
// build it, reusing c's memory. rng must not be nil.
func (c *Conn) Reset(p Path, rng *rand.Rand) {
	if p.Capacity <= 0 {
		panic("netmodel: path capacity must be positive")
	}
	if rng == nil {
		panic("netmodel: rng must not be nil")
	}
	*c = Conn{path: p.withDefaults(), rng: rng, cwndSegs: 10, ssthresh: 1 << 30}
	if p.Faults != nil {
		ge, err := fault.NewGilbertElliott(p.Faults.Loss, rng)
		if err != nil {
			panic("netmodel: " + err.Error())
		}
		c.ge = ge
	}
}

// baseRTT is the flow's uncongested RTT including ambient cross-traffic
// queueing it cannot avoid.
func (c *Conn) baseRTT() time.Duration {
	return c.path.BaseRTT + c.path.AmbientQueueDelay
}

// Connect performs the handshake if needed and reports its latency (one
// base RTT, as in the simulator's SYN/SYN-ACK).
func (c *Conn) Connect() time.Duration {
	if c.established {
		return 0
	}
	c.established = true
	return c.baseRTT()
}

// Cwnd reports the current congestion window in segments (for tests).
func (c *Conn) Cwnd() float64 { return c.cwndSegs }

// Download models fetching size bytes with an optional pace-rate cap
// (0 = unpaced). It advances the connection's congestion state. Scripted
// faults are applied against the connection's own clock (the sum of prior
// download durations); callers that track session time — which includes off
// periods — should use DownloadAt.
func (c *Conn) Download(size units.Bytes, pace units.BitsPerSecond) Result {
	return c.DownloadAt(c.clock, size, pace)
}

// DownloadAt models fetching size bytes starting at session time start, with
// an optional pace-rate cap (0 = unpaced). It advances the connection's
// congestion state. The start time only matters when the path carries a
// fault timeline: a request issued during a blackout stalls until the
// blackout ends (reported in Result.Stalled), and a step bandwidth drop
// covering start scales the available bandwidth.
func (c *Conn) DownloadAt(start time.Duration, size units.Bytes, pace units.BitsPerSecond) Result {
	if size <= 0 {
		panic("netmodel: download size must be positive")
	}
	p := c.path
	// Per-chunk available bandwidth with lognormal jitter.
	jitter := math.Exp(c.rng.NormFloat64()*p.ThroughputJitter - p.ThroughputJitter*p.ThroughputJitter/2)
	avail := units.BitsPerSecond(float64(p.Capacity) * jitter)
	if p.DropoutProb > 0 && c.rng.Float64() < p.DropoutProb {
		avail = units.BitsPerSecond(float64(avail) * p.DropoutFactor)
	}

	// Scripted capacity faults: wait out a blackout, then scale by the step
	// multiplier in effect once the transfer can start.
	var stall time.Duration
	if p.Faults != nil && p.Faults.Timeline != nil {
		tl := p.Faults.Timeline
		effective := start
		if tl.Multiplier(effective) == 0 {
			recovery := tl.NextRecovery(effective)
			stall = recovery - effective
			effective = recovery
		}
		if m := tl.Multiplier(effective); m > 0 && m < 1 {
			avail = units.BitsPerSecond(float64(avail) * m)
		}
	}

	var res Result
	if pace > 0 && float64(pace) < 0.95*float64(avail) {
		res = c.downloadSmooth(size, pace, avail)
	} else {
		res = c.downloadCongested(size, avail)
	}

	// Burst loss from the Gilbert-Elliott chain: each lost segment is
	// retransmitted, and each distinct burst costs roughly one recovery
	// round trip on top of the retransmitted bytes themselves.
	if c.ge != nil && p.Faults.Loss.Enabled() {
		segs := int64((size + p.MSS - 1) / p.MSS)
		lost, bursts := c.ge.LossRun(segs)
		if lost > 0 {
			retx := units.Bytes(lost) * p.MSS
			res.RetxBytes += retx
			res.SentBytes += retx
			res.Packets += lost
			res.Duration += secondsToDuration(float64(retx)*8/float64(avail)) +
				time.Duration(bursts)*c.baseRTT()
		}
	}

	if stall > 0 {
		res.Stalled = stall
		res.FirstByte += stall
		res.Duration += stall
	}
	transfer := res.Duration - res.FirstByte
	if transfer <= 0 {
		transfer = time.Nanosecond
	}
	res.Throughput = units.Rate(size, transfer)
	c.clock = start + res.Duration
	return res
}

// downloadSmooth is the paced regime: rate-limited below capacity, empty
// queue, base RTT.
func (c *Conn) downloadSmooth(size units.Bytes, pace, avail units.BitsPerSecond) Result {
	p := c.path
	rtt := c.baseRTT()
	segs := float64((size + p.MSS - 1) / p.MSS)
	targetW := windowFor(pace, rtt, p.MSS)

	var t float64 // seconds of transfer time after the first byte
	remaining := segs
	// Slow-start ramp if the window is below the pacing BDP: each round
	// delivers cwnd segments in one RTT and doubles the window.
	for c.cwndSegs < targetW && remaining > 0 {
		send := math.Min(c.cwndSegs, remaining)
		remaining -= send
		t += rtt.Seconds()
		c.cwndSegs = math.Min(c.cwndSegs*2, targetW)
	}
	if remaining > 0 {
		t += remaining * float64(p.MSS) * 8 / float64(pace)
	}
	// Residual random loss: each lost segment costs a retransmit; recovery
	// time is already inside the pace-limited schedule.
	lost := c.binomialLosses(int64(segs), p.BaseLossRate)
	retx := units.Bytes(lost) * p.MSS

	first := rtt // request + first response byte
	dur := first + secondsToDuration(t)
	c.chunks++
	return c.result(size, retx, dur, first, rtt, int64(segs)+lost)
}

// downloadCongested is the unpaced regime: slow start overshoots the pipe,
// then Reno saws against the drop-tail queue.
func (c *Conn) downloadCongested(size units.Bytes, avail units.BitsPerSecond) Result {
	p := c.path
	base := c.baseRTT()
	// The pipe the window must fill includes ambient queueing: a flow with
	// 25 ms of cross-traffic delay needs twice the window of one without.
	bdpSegs := float64(avail.BytesIn(base)) / float64(p.MSS)
	wMax := bdpSegs + float64(p.QueueBytes)/float64(p.MSS) // window at which the queue overflows
	if wMax < 4 {
		wMax = 4
	}
	segs := float64((size + p.MSS - 1) / p.MSS)

	var t float64         // seconds after first byte
	var rttWeight float64 // Σ rtt·segments, for the mean RTT
	var lost int64
	remaining := segs

	// On-period onset burst: once the connection is warm, each new chunk
	// begins with a line-rate flight of roughly cwnd segments into a
	// drained queue; what the buffer cannot absorb is dropped.
	if p.OnsetBurstLoss > 0 && c.chunks > 0 {
		queueSegs := float64(p.QueueBytes) / float64(p.MSS)
		if excess := c.cwndSegs - queueSegs; excess > 0 {
			burstLost := int64(p.OnsetBurstLoss * excess)
			if burstLost > 0 {
				lost += burstLost
				remaining += float64(burstLost)
			}
		}
	}

	rttAt := func(w float64) time.Duration {
		// Queue delay grows once the window exceeds the BDP.
		excess := (w - bdpSegs) * float64(p.MSS)
		if excess < 0 {
			excess = 0
		}
		if excess > float64(p.QueueBytes) {
			excess = float64(p.QueueBytes)
		}
		return base + secondsToDuration(excess*8/float64(avail))
	}

	// Phase 1: slow start, only while below both the pipe and ssthresh
	// (after the first loss the connection stays in congestion avoidance).
	for c.cwndSegs < wMax && c.cwndSegs < c.ssthresh && remaining > 0 {
		rtt := rttAt(c.cwndSegs)
		send := math.Min(c.cwndSegs, remaining)
		remaining -= send
		t += rtt.Seconds()
		rttWeight += rtt.Seconds() * send
		next := c.cwndSegs * 2
		if next >= wMax {
			// Overshoot: everything beyond the pipe is dropped in one burst.
			over := int64(next - wMax)
			if over > 0 {
				lost += over
				remaining += float64(over) // retransmitted later
			}
			c.cwndSegs = wMax / 2
			c.ssthresh = c.cwndSegs
			// One recovery RTT.
			t += rtt.Seconds()
			break
		}
		c.cwndSegs = next
	}

	// Phase 2: congestion-avoidance sawtooth. Model cycle-by-cycle: the
	// window climbs linearly from its current value to wMax, loses one
	// segment, halves.
	for remaining > 0 {
		w := c.cwndSegs
		if w >= wMax {
			w = wMax / 2
		}
		// One cycle: rounds from w to wMax, one segment per round increase.
		rounds := wMax - w
		if rounds < 1 {
			rounds = 1
		}
		avgW := (w + wMax) / 2
		rtt := rttAt(avgW)
		cycleSegs := avgW * rounds
		// The self-clocked rate is avgW·MSS per RTT, but it can never exceed
		// the bottleneck rate (the queue-clamped RTT would otherwise let
		// degenerate tiny-wMax paths overshoot capacity).
		rate := math.Min(avgW*float64(p.MSS)*8/rtt.Seconds(), float64(avail))
		cycleTime := cycleSegs * float64(p.MSS) * 8 / rate
		if cycleSegs >= remaining {
			frac := remaining / cycleSegs
			t += cycleTime * frac
			rttWeight += rtt.Seconds() * remaining
			c.cwndSegs = w + rounds*frac
			remaining = 0
			break
		}
		remaining -= cycleSegs
		t += cycleTime
		rttWeight += rtt.Seconds() * cycleSegs
		lost++ // drop-tail loss at the peak
		remaining++
		c.cwndSegs = wMax / 2
		c.ssthresh = c.cwndSegs
	}

	lost += c.binomialLosses(int64(segs), p.BaseLossRate)
	retx := units.Bytes(lost) * p.MSS
	first := rttAt(c.cwndSegs)
	dur := first + secondsToDuration(t)

	meanRTT := base
	if total := segs + float64(lost); total > 0 && rttWeight > 0 {
		meanRTT = secondsToDuration(rttWeight / segs)
	}
	c.chunks++
	return c.result(size, retx, dur, first, meanRTT, int64(segs)+lost)
}

// result assembles a Result.
func (c *Conn) result(size, retx units.Bytes, dur, first, meanRTT time.Duration, packets int64) Result {
	return Result{
		Duration:   dur,
		FirstByte:  first,
		Bytes:      size,
		SentBytes:  size + retx,
		RetxBytes:  retx,
		MeanRTT:    meanRTT,
		Packets:    packets,
		Throughput: units.Rate(size, dur-first+1),
	}
}

// binomialLosses draws the number of randomly lost segments out of n at
// rate p. Below a mean of 5 losses it is exact: it jumps from one loss to
// the next by geometric gaps (the number of segments up to and including
// the next loss is Geometric(p), drawn by inversion), so it costs k+1
// random numbers for k losses rather than one per segment. At larger means
// it uses a normal approximation.
func (c *Conn) binomialLosses(n int64, p float64) int64 {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	mean := float64(n) * p
	if mean < 5 {
		logq := math.Log1p(-p)
		var k, pos int64
		for {
			// Compared as a float: for tiny p the gap exceeds any int64.
			gap := math.Floor(math.Log(1-c.rng.Float64())/logq) + 1
			if gap > float64(n-pos) {
				return k
			}
			pos += int64(gap)
			k++
		}
	}
	sd := math.Sqrt(mean * (1 - p))
	k := int64(math.Round(mean + c.rng.NormFloat64()*sd))
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	return k
}

// windowFor is the window (segments) that sustains rate over rtt.
func windowFor(rate units.BitsPerSecond, rtt time.Duration, mss units.Bytes) float64 {
	w := float64(rate.BytesIn(rtt)) / float64(mss)
	if w < 2 {
		w = 2
	}
	return w
}

func secondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}
