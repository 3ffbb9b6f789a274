package player

import (
	"math/rand"
	"time"

	"repro/internal/abr"
	"repro/internal/netmodel"
)

// Run executes one video session synchronously over an analytic netmodel
// path, returning its QoE report. onChunk, when non-nil, receives a trace
// event per chunk.
//
// This is the population-scale driver: a ten-minute session costs
// microseconds, so the A/B harness can run tens of thousands of them. Run
// is a one-shot Session; population workers keep a Session per goroutine.
func Run(cfg Config, path netmodel.Path, rng *rand.Rand, onChunk func(ChunkEvent)) QoE {
	var s Session
	return s.Run(cfg, path, rng, onChunk)
}

// Session is a reusable netmodel session driver: it owns the per-session
// state Run needs (QoE accounting with its RTT digest, the throughput
// estimator, the connection) and resets it at the start of every Run, so
// a long-lived Session runs sequential sessions without allocating for
// them. Results are identical to the package-level Run. A Session is not
// safe for concurrent use.
type Session struct {
	acct accounting
	est  *abr.Estimator
	conn netmodel.Conn
}

// Run executes one session like the package-level Run, reusing s's state.
func (s *Session) Run(cfg Config, path netmodel.Path, rng *rand.Rand, onChunk func(ChunkEvent)) QoE {
	cfg.setDefaults()
	acct := &s.acct
	acct.reset(cfg)
	if s.est == nil || s.est.Size() != cfg.EstimatorWindow {
		s.est = abr.NewEstimator(cfg.EstimatorWindow)
	}
	est := s.est
	est.Reset()

	// All spans in this driver are stamped with session time (the *At
	// forms), so fixed-seed runs export byte-identical traces.
	sess := cfg.Trace.StartAt(0, "player.session", cfg.Controller.Name())

	conn := &s.conn
	conn.Reset(path, rng)
	now := conn.Connect() // handshake counts toward play delay

	buffer := time.Duration(0)
	playing := false
	playDelay := time.Duration(0)
	prevRung := -1
	var contentDownloaded time.Duration // duration of fetched chunks
	var abandoned bool
	var wastedBuffer time.Duration

	for i := 0; i < cfg.WatchChunks; i++ {
		// Early abandonment: the user quits once they have watched
		// AbandonAfter of content. Whatever is still in the buffer (or
		// currently downloading) was wasted.
		if cfg.AbandonAfter > 0 && playing {
			watched := contentDownloaded - buffer
			if watched >= cfg.AbandonAfter {
				abandoned = true
				wastedBuffer = buffer
				break
			}
		}
		// Off period: wait until the buffer has room for the next chunk.
		if playing {
			if room := cfg.MaxBuffer - buffer; room < cfg.Title.ChunkDuration {
				wait := cfg.Title.ChunkDuration - room
				sess.StartChildAt(now, "player.idle", "").EndAt(now + wait)
				now += wait
				buffer -= wait
			}
		}

		ctx := decisionContext(cfg, i, buffer, playing, est, prevRung)
		chSpan := sess.StartChildAt(now, "player.chunk", "").SetAttr("index", float64(i))
		chSpan.AnnotateAt(now, "bwest.estimate", float64(ctx.Throughput))
		dec := cfg.Controller.DecideTraced(ctx, chSpan, now)
		prevRung = dec.Rung
		chunk := cfg.Title.ChunkAt(i, dec.Rung)

		start := now
		dl := chSpan.StartChildAt(now, "netmodel.download", "")
		// DownloadAt (not Download) so scripted fault timelines on the path
		// see true session time, including off-period waits and stalls.
		res := conn.DownloadAt(now, chunk.Size, dec.PaceRate)
		now += res.Duration
		res.TraceAttrs(dl)
		dl.EndAt(now)

		observe(cfg, est, res.Throughput, playing)
		acct.chunkDone(chunk, res.SentBytes, res.RetxBytes, res.Duration, res.MeanRTT, res.Packets)

		if playing {
			// The buffer drained during the download and refills by the
			// chunk duration; going below zero is a rebuffer.
			buffer -= res.Duration
			if buffer < 0 {
				acct.rebuffer(-buffer)
				sess.StartChildAt(now, "player.stall", "").EndAt(now + -buffer)
				now += -buffer // the stall extends wall-clock time
				buffer = 0
			}
			buffer += chunk.Duration
		} else {
			buffer += chunk.Duration
			if buffer >= cfg.StartThreshold {
				playing = true
				playDelay = now
			}
		}
		if cfg.MaxBuffer > 0 && buffer > cfg.MaxBuffer {
			buffer = cfg.MaxBuffer
		}

		contentDownloaded += chunk.Duration
		chSpan.SetAttr("rung", float64(dec.Rung)).SetAttr("buffer_s", buffer.Seconds()).EndAt(now)
		if m := cfg.Metrics; m != nil {
			m.BufferSeconds.Set(buffer.Seconds())
		}
		if onChunk != nil {
			onChunk(ChunkEvent{
				Index: i, Start: start, End: now,
				Size: chunk.Size, Rung: chunk.Rung,
				PaceRate: dec.PaceRate, Throughput: res.Throughput,
				Buffer: buffer, Playing: playing,
			})
		}
	}
	if !playing {
		// The user never reached playback (pathological path); report the
		// whole session as play delay.
		playDelay = now
	}
	sess.SetAttr("chunks", float64(acct.qoe.Chunks)).
		SetAttr("rebuffer_s", acct.qoe.RebufferTime.Seconds()).EndAt(now)
	q := acct.finish(playDelay)
	if abandoned {
		q.Abandoned = true
		q.WastedBuffer = wastedBuffer
		// Chunks in the buffer at quit time were downloaded but unplayed;
		// approximate their bytes from the session's average bitrate.
		q.WastedBytes = q.AvgBitrate.BytesIn(wastedBuffer)
		q.PlayedTime -= wastedBuffer
		if q.PlayedTime < 0 {
			q.PlayedTime = 0
		}
	}
	return q
}
