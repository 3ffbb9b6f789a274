// Package player implements the video player engine: the initial and
// playing phases, playback-buffer management, and the QoE accounting the
// paper's experiments report (play delay, initial and overall VMAF,
// rebuffers, and download-time-weighted chunk throughput).
//
// Two drivers share the same decision and accounting logic: Run executes a
// session synchronously over the analytic netmodel path (for population
// A/B experiments), and SimPlayer executes a session event-by-event over a
// packet-level tcp.Conn (for the lab experiments).
package player

import (
	"time"

	"repro/internal/abr"
	"repro/internal/core"
	"repro/internal/obs"
	trace "repro/internal/obs/trace"
	"repro/internal/tdigest"
	"repro/internal/units"
	"repro/internal/video"
)

// Config parameterizes a session.
type Config struct {
	// Controller makes the joint bitrate/pace decisions. Required.
	Controller *core.Controller
	// Title is the video being played. Required.
	Title *video.Title
	// MaxBuffer is the client buffer capacity. Default 4 minutes, typical
	// for the TV devices the paper experiments on.
	MaxBuffer time.Duration
	// StartThreshold is the buffer level at which playback starts. Default
	// 2 chunk durations.
	StartThreshold time.Duration
	// History is the per-user historical throughput store feeding initial
	// bitrate selection. Optional; a session-local store is used if nil.
	History *core.History
	// WatchChunks caps how many chunks the user watches; 0 means the whole
	// title.
	WatchChunks int
	// AbandonAfter, when positive, makes the user quit after watching that
	// much content, mid-session. Chunks sitting in the buffer at quit time
	// were downloaded for nothing — the "wasted buffer" that motivated
	// Trickle (Table 1 in the paper).
	AbandonAfter time.Duration
	// EstimatorWindow sizes the in-session throughput estimator window.
	// Default 5.
	EstimatorWindow int
	// Metrics receives live telemetry (buffer level, bitrate switches,
	// rebuffers). Defaults to metrics on the process-wide obs registry when
	// one is installed, else nil (off).
	Metrics *Metrics
	// Trace is the session's trace for span emission (DESIGN.md §12); nil
	// means tracing off. When nil and TraceID is set, setDefaults resolves
	// a session trace from the process-wide tracer (trace.Default()), which
	// keeps tracing off when no tracer is installed.
	Trace *trace.Trace
	// TraceID names the session in the process-wide tracer when Trace is
	// unset.
	TraceID string
}

func (c *Config) setDefaults() {
	if c.Controller == nil || c.Title == nil {
		panic("player: Config needs Controller and Title")
	}
	if c.MaxBuffer <= 0 {
		c.MaxBuffer = 4 * time.Minute
	}
	if c.StartThreshold <= 0 {
		c.StartThreshold = 2 * c.Title.ChunkDuration
	}
	if c.History == nil {
		c.History = &core.History{}
	}
	if c.WatchChunks <= 0 || c.WatchChunks > c.Title.NumChunks {
		c.WatchChunks = c.Title.NumChunks
	}
	if c.EstimatorWindow <= 0 {
		c.EstimatorWindow = 5
	}
	if c.Metrics == nil {
		c.Metrics = NewMetrics(obs.Default())
	}
	if c.Trace == nil && c.TraceID != "" {
		c.Trace = trace.Default().Session(c.TraceID)
	}
}

// InitialQualityWindow is the content prefix whose time-weighted VMAF the
// paper reports as "initial VMAF" (the first twenty seconds of playback).
const InitialQualityWindow = 20 * time.Second

// QoE is the per-session report card, mirroring the metrics in Tables 2
// and 3 plus the congestion metrics of §5.1.
type QoE struct {
	// Video QoE.
	PlayDelay     time.Duration // request to playback start
	InitialVMAF   float64       // time-weighted VMAF of the first 20 s
	VMAF          float64       // time-weighted VMAF of the session
	RebufferCount int
	RebufferTime  time.Duration
	Rebuffered    bool // at least one rebuffer (the "% sess" metric)

	// Congestion metrics.
	ChunkThroughput units.BitsPerSecond // download-time-weighted (Appendix A x̄)
	RetxFraction    float64             // retransmitted bytes / bytes sent
	MedianRTT       time.Duration       // median of the session's RTT digest

	// Abandonment accounting (only populated when Config.AbandonAfter is
	// set and the user quit early).
	Abandoned    bool
	WastedBytes  units.Bytes   // downloaded but never played
	WastedBuffer time.Duration // content sitting in the buffer at quit time

	// Volume accounting.
	Bytes        units.Bytes
	SentBytes    units.Bytes
	DownloadTime time.Duration
	PlayedTime   time.Duration
	AvgBitrate   units.BitsPerSecond
	Chunks       int
}

// ChunkEvent describes one completed chunk download, for time-series
// tracing (Figures 1 and 7).
type ChunkEvent struct {
	Index      int
	Start, End time.Duration // session-relative download interval
	Size       units.Bytes
	Rung       video.Rung
	PaceRate   units.BitsPerSecond
	Throughput units.BitsPerSecond
	Buffer     time.Duration // buffer level after the chunk landed
	Playing    bool
}

// accounting is the QoE bookkeeping shared by both drivers.
type accounting struct {
	cfg Config

	qoe         QoE
	rtt         *tdigest.TDigest
	vmafWeight  float64 // Σ duration·vmaf
	initWeight  float64 // same, first 20 s of content
	initDur     time.Duration
	retxBytes   units.Bytes
	lastBitrate units.BitsPerSecond // previous chunk's rung, for switch counting
}

func newAccounting(cfg Config) *accounting {
	a := new(accounting)
	a.reset(cfg)
	return a
}

// reset starts a new session's bookkeeping, reusing the RTT digest.
func (a *accounting) reset(cfg Config) {
	rtt := a.rtt
	if rtt == nil {
		rtt = tdigest.New(100)
	} else {
		rtt.Reset()
	}
	*a = accounting{cfg: cfg, rtt: rtt}
}

// chunkDone records one finished chunk download.
func (a *accounting) chunkDone(chunk video.Chunk, sentBytes, retxBytes units.Bytes,
	downloadTime time.Duration, meanRTT time.Duration, packets int64) {
	if m := a.cfg.Metrics; m != nil {
		m.Chunks.Inc()
		m.BitrateBps.Set(float64(chunk.Rung.Bitrate))
		if a.qoe.Chunks > 0 && chunk.Rung.Bitrate != a.lastBitrate {
			m.BitrateSwitches.Inc()
		}
	}
	a.lastBitrate = chunk.Rung.Bitrate
	a.qoe.Chunks++
	a.qoe.Bytes += chunk.Size
	a.qoe.SentBytes += sentBytes
	a.retxBytes += retxBytes
	a.qoe.DownloadTime += downloadTime
	a.qoe.PlayedTime += chunk.Duration
	a.vmafWeight += chunk.Duration.Seconds() * chunk.Rung.VMAF
	if pos := time.Duration(chunk.Index) * a.cfg.Title.ChunkDuration; pos < InitialQualityWindow {
		d := a.cfg.Title.ChunkDuration
		if rem := InitialQualityWindow - pos; rem < d {
			d = rem
		}
		a.initWeight += d.Seconds() * chunk.Rung.VMAF
		a.initDur += d
	}
	if meanRTT > 0 && packets > 0 {
		a.rtt.AddWeighted(meanRTT.Seconds()*1000, float64(packets))
	}
}

// rebuffer records a playback stall.
func (a *accounting) rebuffer(d time.Duration) {
	if d <= 0 {
		return
	}
	a.qoe.RebufferCount++
	a.qoe.RebufferTime += d
	a.qoe.Rebuffered = true
	if m := a.cfg.Metrics; m != nil {
		m.Rebuffers.Inc()
		m.RebufferMs.Add(d.Milliseconds())
	}
}

// finish computes the derived metrics and returns the report.
func (a *accounting) finish(playDelay time.Duration) QoE {
	q := a.qoe
	q.PlayDelay = playDelay
	if a.qoe.PlayedTime > 0 {
		q.VMAF = a.vmafWeight / a.qoe.PlayedTime.Seconds()
		q.AvgBitrate = units.Rate(a.qoe.Bytes, a.qoe.PlayedTime)
	}
	if a.initDur > 0 {
		q.InitialVMAF = a.initWeight / a.initDur.Seconds()
	}
	q.ChunkThroughput = units.Rate(a.qoe.Bytes, a.qoe.DownloadTime)
	if a.qoe.SentBytes > 0 {
		q.RetxFraction = float64(a.retxBytes) / float64(a.qoe.SentBytes)
	}
	if a.rtt.Count() > 0 {
		q.MedianRTT = time.Duration(a.rtt.Quantile(0.5) * float64(time.Millisecond))
	}
	return q
}

// decisionContext assembles the abr.Context for chunk index.
func decisionContext(cfg Config, index int, buffer time.Duration, playing bool,
	est *abr.Estimator, prevRung int) abr.Context {
	return abr.Context{
		Title:           cfg.Title,
		ChunkIndex:      index,
		Buffer:          buffer,
		MaxBuffer:       cfg.MaxBuffer,
		Playing:         playing,
		Throughput:      est.Estimate(),
		InitialEstimate: cfg.History.Estimate(cfg.Controller.HistorySource()),
		PrevRung:        prevRung,
	}
}

// observe feeds a chunk throughput measurement into the session estimator
// and the user's history, routed by phase (§4.1).
func observe(cfg Config, est *abr.Estimator, x units.BitsPerSecond, playing bool) {
	est.Observe(x)
	if playing {
		cfg.History.ObservePlaying(x)
	} else {
		cfg.History.ObserveInitial(x)
	}
}
