// Package tcp implements a packet-granularity TCP Reno endpoint pair on top
// of the discrete-event simulator: slow start, AIMD congestion avoidance,
// fast retransmit/recovery (NewReno partial acks), retransmission timeouts
// with Karn's algorithm and exponential backoff, and — crucially for this
// paper — transmit pacing with a configurable maximum rate and burst size.
//
// The model is deliberately packet-granular (one segment per MSS) rather
// than byte-granular: the congestion phenomena the experiments measure
// (queue build-up, drop-tail losses, RTT inflation, retransmit rates) are
// functions of packet dynamics, and packet granularity is the standard
// modelling choice in network simulators.
package tcp

import (
	"strconv"
	"time"

	"repro/internal/obs"
	trace "repro/internal/obs/trace"
	"repro/internal/pacing"
	"repro/internal/sim"
	"repro/internal/tdigest"
	"repro/internal/units"
)

// Config parameterizes a connection. The zero value is usable; unset fields
// take the defaults documented on each field.
type Config struct {
	// MSS is the segment wire size. Default 1500 bytes.
	MSS units.Bytes
	// InitialCwnd is the initial congestion window in segments. Default 10
	// (RFC 6928).
	InitialCwnd float64
	// MinRTO is the lower bound on the retransmission timeout. Default
	// 200 ms, the common kernel floor.
	MinRTO time.Duration
	// PacerBurst is the pacing bucket depth in segments. Default 40,
	// matching the paper's description of the production TCP stack's
	// line-rate burst limit (§5.6).
	PacerBurst int
	// SlowStartRestart, when true, collapses cwnd back to InitialCwnd after
	// an idle period longer than one RTO (RFC 2861). The production stack
	// modelled in the paper keeps its window across chunk gaps, so the
	// default is false.
	SlowStartRestart bool
	// Variant selects the congestion-control law. Default Reno.
	Variant Variant
}

func (c *Config) setDefaults() {
	if c.MSS <= 0 {
		c.MSS = 1500
	}
	if c.InitialCwnd <= 0 {
		c.InitialCwnd = 10
	}
	if c.MinRTO <= 0 {
		c.MinRTO = 200 * time.Millisecond
	}
	if c.PacerBurst <= 0 {
		c.PacerBurst = 40
	}
}

// Stats are cumulative sender-side counters.
type Stats struct {
	SegmentsSent      int64       // data segments transmitted, incl. retransmits
	BytesSent         units.Bytes // wire bytes of data segments, incl. retransmits
	Retransmits       int64       // retransmitted segments
	RetransmitBytes   units.Bytes // wire bytes of retransmitted segments
	Timeouts          int64       // RTO expirations
	FastRetransmits   int64       // fast-retransmit events
	DeliveredBytes    units.Bytes // bytes cumulatively acked
	RTTSamples        int64       // RTT measurements taken
	HandshakeComplete bool
}

// RetransmitFraction reports retransmitted bytes over all bytes sent, the
// paper's per-session retransmission metric.
func (s Stats) RetransmitFraction() float64 {
	if s.BytesSent == 0 {
		return 0
	}
	return float64(s.RetransmitBytes) / float64(s.BytesSent)
}

// FetchResult summarizes one completed request/response transfer, measured
// at the client.
type FetchResult struct {
	Size        units.Bytes
	RequestedAt time.Duration // when the client issued the request
	FirstByteAt time.Duration // when the first response byte arrived
	DoneAt      time.Duration // when the last response byte arrived
}

// Throughput is the download-time-weighted chunk throughput the paper uses:
// size over the time from first to last byte (falling back to request time
// for sub-MSS transfers).
func (r FetchResult) Throughput() units.BitsPerSecond {
	start := r.FirstByteAt
	if r.DoneAt <= start {
		start = r.RequestedAt
	}
	return units.Rate(r.Size, r.DoneAt-start)
}

// ResponseTime is the request-to-last-byte latency, the paper's HTTP
// response time metric.
func (r FetchResult) ResponseTime() time.Duration { return r.DoneAt - r.RequestedAt }

// connState tracks connection establishment.
type connState int

const (
	stateClosed connState = iota
	stateSynSent
	stateEstablished
)

// request is one queued response transfer, tracked on both sides: the
// server knows where each response ends so it can mark boundaries; the
// client fires callbacks as bytes arrive.
type request struct {
	size        units.Bytes
	endSeq      int64 // first sequence number after this response
	requestedAt time.Duration
	firstByteAt time.Duration
	gotFirst    bool
	onFirst     func(t time.Duration)
	onComplete  func(r FetchResult)
}

// Conn is a client-server TCP connection pair on the simulator. The server
// side sends response data through a (typically shared, bottleneck) forward
// link; the client side receives data and returns acks and requests over a
// private reverse link.
//
// Conn is single-goroutine like everything in package sim.
type Conn struct {
	s    *sim.Simulator
	cfg  Config
	flow sim.FlowID
	fwd  sim.Sender // server → client, shared bottleneck
	rev  *sim.Link  // client → server, private

	// Sender (server) state, in segment sequence numbers.
	state      connState
	cwnd       float64
	ssthresh   float64
	sndUna     int64
	sndNxt     int64
	appLimit   int64 // sequence bound of data the application has provided
	dupAcks    int
	inRecovery bool
	recoverSeq int64
	sentAt     map[int64]time.Duration // send times for RTT sampling (Karn)
	pacer      *pacing.Pacer
	paceTimer  sim.EventRef
	paceCb     func()  // pre-bound pace-timer callback (no per-arm closure)
	cwndCap    float64 // Trickle-style window cap in segments; 0 = off
	lastSend   time.Duration

	// RTO state.
	srtt, rttvar time.Duration
	rto          time.Duration
	rtoTimer     sim.EventRef
	rtoCb        func() // pre-bound onRTO (no per-arm method-value alloc)
	backoff      int

	// Variant state.
	cubic  cubicState
	minRTT time.Duration // smallest RTT sample, for delay-based laws

	// Receiver (client) state.
	rcvNxt int64
	ooo    map[int64]bool

	// Application state.
	pending    []*request // awaiting or in transfer, FIFO
	clientSide []*request // client view of the same queue
	consumed   int64      // sequence consumed by completed requests (client)

	// Measurements.
	Stats         Stats
	RTT           *tdigest.TDigest // per-ack RTT samples
	metrics       *Metrics         // nil = instrumentation off
	span          *trace.Span      // current fetch span; nil = tracing off
	onEstablished func()
}

// flowName renders the flow id as an event subject (cold paths only).
func (c *Conn) flowName() string { return strconv.Itoa(int(c.flow)) }

const (
	ackSize     units.Bytes = 40  // wire size of a pure ack
	requestSize units.Bytes = 120 // wire size of a request (HTTP GET-ish)
)

// NewConn creates a connection whose server transmits into fwd and whose
// client receives packets for flow from fwdClass. The reverse (client →
// server) path is a private link built from revCfg.
func NewConn(s *sim.Simulator, flow sim.FlowID, fwd sim.Sender, fwdClass *sim.Classifier, revCfg sim.LinkConfig, cfg Config) *Conn {
	cfg.setDefaults()
	c := &Conn{
		s:        s,
		cfg:      cfg,
		flow:     flow,
		fwd:      fwd,
		cwnd:     cfg.InitialCwnd,
		ssthresh: 1 << 30,
		sentAt:   make(map[int64]time.Duration),
		ooo:      make(map[int64]bool),
		rto:      time.Second,
		pacer:    pacing.NewPacer(pacing.NoPacing, units.Bytes(cfg.PacerBurst)*cfg.MSS),
		RTT:      tdigest.New(100),
		cubic:    cubicState{epochStart: -1},
	}
	if r := obs.Default(); r != nil {
		c.metrics = NewMetrics(r)
	}
	c.paceCb = func() {
		c.paceTimer = sim.EventRef{}
		c.trySend()
	}
	c.rtoCb = c.onRTO
	c.rev = sim.NewLink(s, revCfg, sim.HandlerFunc(c.handleServerPacket))
	fwdClass.Register(flow, sim.HandlerFunc(c.handleClientPacket))
	return c
}

// SetPacingRate applies an application-informed pace rate (an upper bound on
// the server's sending rate) with the configured burst. A zero rate disables
// pacing. This is the transport half of §3.2.
func (c *Conn) SetPacingRate(rate units.BitsPerSecond) {
	c.pacer.SetRate(c.s.Now(), rate, units.Bytes(c.cfg.PacerBurst)*c.cfg.MSS)
	if c.metrics != nil {
		c.metrics.PaceRate.Set(float64(rate))
		c.metrics.Recorder.RecordAt(c.s.Now(), "tcp_pace_rate", c.flowName(), float64(rate), 0)
	}
	if c.span != nil {
		c.span.AnnotateAt(c.s.Now(), "tcp.pace_rate", float64(rate))
	}
}

// SetPacerBurst changes the pacing burst size in segments (paper §5.6).
func (c *Conn) SetPacerBurst(segments int) {
	if segments <= 0 {
		segments = 1
	}
	c.cfg.PacerBurst = segments
	c.pacer.SetRate(c.s.Now(), c.pacer.Rate(), units.Bytes(segments)*c.cfg.MSS)
}

// PacingRate reports the current pace rate (0 when unpaced).
func (c *Conn) PacingRate() units.BitsPerSecond { return c.pacer.Rate() }

// SetCwndCap caps the effective congestion window at the given number of
// segments (0 removes the cap). This is the Trickle-style [25] rate limiter
// the paper's related work compares against: it bounds average throughput
// to cap·MSS/RTT but still releases window-sized line-rate bursts, unlike
// pacing (§5.6 quantifies the difference).
func (c *Conn) SetCwndCap(segments float64) {
	if segments < 0 {
		segments = 0
	}
	c.cwndCap = segments
	c.trySend()
}

// SRTT reports the smoothed RTT estimate, 0 before the first sample.
func (c *Conn) SRTT() time.Duration { return c.srtt }

// Cwnd reports the congestion window in segments.
func (c *Conn) Cwnd() float64 { return c.cwnd }

// InFlight reports unacknowledged segments.
func (c *Conn) InFlight() int64 { return c.sndNxt - c.sndUna }

// Fetch issues a request for size bytes of response data. onComplete fires
// at the client when the last byte arrives; onFirst (optional) fires at the
// first byte. Requests are served FIFO on the single connection, like
// sequential HTTP requests on a persistent connection.
func (c *Conn) Fetch(size units.Bytes, onFirst func(time.Duration), onComplete func(FetchResult)) {
	if size <= 0 {
		panic("tcp: Fetch size must be positive")
	}
	r := &request{size: size, requestedAt: c.s.Now(), onFirst: onFirst, onComplete: onComplete}
	c.clientSide = append(c.clientSide, r)
	switch c.state {
	case stateClosed:
		c.state = stateSynSent
		c.sendSyn()
		// SYN loss is recovered by a simple fixed retry.
		c.scheduleSynRetry()
	case stateSynSent:
		// Request will be sent once established.
	case stateEstablished:
		c.sendRequest(r)
	}
}

// synPayload marks a SYN packet; requestPayload carries a request size.
type synPayload struct{}
type synAckPayload struct{}
type requestPayload struct{ size units.Bytes }

// sendSyn transmits a SYN over the reverse link (pooled, like all packets
// this connection produces).
func (c *Conn) sendSyn() {
	p := c.s.AllocPacket()
	p.Flow, p.Size, p.SentAt, p.Payload = c.flow, requestSize, c.s.Now(), synPayload{}
	c.rev.Send(p)
}

func (c *Conn) scheduleSynRetry() {
	c.s.Schedule(3*time.Second, func() {
		if c.state == stateSynSent {
			c.sendSyn()
			c.scheduleSynRetry()
		}
	})
}

// sendRequest transmits the request packet for r to the server.
func (c *Conn) sendRequest(r *request) {
	p := c.s.AllocPacket()
	p.Flow, p.Size, p.SentAt = c.flow, requestSize, c.s.Now()
	p.Payload = requestPayload{size: r.size}
	c.rev.Send(p)
}

// OnEstablished registers a callback for handshake completion.
func (c *Conn) OnEstablished(fn func()) { c.onEstablished = fn }

// --- Server side ------------------------------------------------------

// handleServerPacket processes packets arriving at the server: SYNs,
// requests and acks.
func (c *Conn) handleServerPacket(p *sim.Packet) {
	switch pl := p.Payload.(type) {
	case synPayload:
		// Reply SYN-ACK through the forward path so the handshake feels
		// bottleneck congestion like everything else.
		sa := c.s.AllocPacket()
		sa.Flow, sa.Size, sa.SentAt, sa.Payload = c.flow, ackSize, c.s.Now(), synAckPayload{}
		c.fwd.Send(sa)
	case requestPayload:
		c.appendResponse(pl.size)
	default:
		if p.IsAck {
			c.handleAck(p)
		}
	}
}

// appendResponse queues size bytes of response data for transmission.
func (c *Conn) appendResponse(size units.Bytes) {
	segs := int64((size + c.cfg.MSS - 1) / c.cfg.MSS)
	if segs == 0 {
		segs = 1
	}
	if c.cfg.SlowStartRestart && c.appLimit == c.sndNxt && c.lastSend > 0 &&
		c.s.Now()-c.lastSend > c.rto {
		c.cwnd = c.cfg.InitialCwnd
	}
	c.appLimit += segs
	c.pending = append(c.pending, &request{endSeq: c.appLimit})
	c.trySend()
}

// trySend transmits as much new data as the window, the application and the
// pacer allow.
func (c *Conn) trySend() {
	if c.paceTimer.Pending() {
		// A pacing timer is armed; it will call back into trySend.
		return
	}
	for c.sndNxt < c.appLimit && float64(c.sndNxt-c.sndUna) < c.effectiveCwnd() {
		if d := c.pacer.Delay(c.s.Now(), c.cfg.MSS); d > 0 {
			c.pacer.Refund(c.cfg.MSS)
			if c.metrics != nil {
				c.metrics.PacerSleep.Observe(d.Seconds() * 1000)
			}
			c.paceTimer = c.s.Schedule(d, c.paceCb)
			return
		}
		c.transmit(c.sndNxt, false)
		c.sndNxt++
	}
}

// effectiveCwnd applies the optional Trickle-style cap to the congestion
// window.
func (c *Conn) effectiveCwnd() float64 {
	if c.cwndCap > 0 && c.cwndCap < c.cwnd {
		return c.cwndCap
	}
	return c.cwnd
}

// transmit sends segment seq, stamping it for RTT measurement unless it is a
// retransmission (Karn's algorithm). Segments come from the simulator's
// packet pool; the forward link recycles them after delivery or drop.
func (c *Conn) transmit(seq int64, retrans bool) {
	p := c.s.AllocPacket()
	p.Flow, p.Seq, p.Size, p.SentAt, p.Retrans = c.flow, seq, c.cfg.MSS, c.s.Now(), retrans
	c.Stats.SegmentsSent++
	c.Stats.BytesSent += c.cfg.MSS
	if m := c.metrics; m != nil {
		m.SegmentsSent.Inc()
		m.BytesSent.Add(int64(c.cfg.MSS))
		if retrans {
			m.Retransmits.Inc()
			m.Recorder.RecordAt(c.s.Now(), "tcp_retransmit", c.flowName(), float64(seq), 0)
		}
	}
	if retrans {
		c.Stats.Retransmits++
		c.Stats.RetransmitBytes += c.cfg.MSS
		delete(c.sentAt, seq)
	} else {
		c.sentAt[seq] = c.s.Now()
	}
	c.lastSend = c.s.Now()
	c.fwd.Send(p) // drop-tail losses surface as missing acks
	c.armRTO()
}

// handleAck processes a cumulative ack at the server.
func (c *Conn) handleAck(p *sim.Packet) {
	ack := p.Ack
	switch {
	case ack > c.sndUna:
		newlyAcked := ack - c.sndUna
		// RTT sample from the most recent newly acked, never-retransmitted
		// segment.
		var rttSample time.Duration
		if t, ok := c.sentAt[ack-1]; ok {
			rttSample = c.s.Now() - t
			c.sampleRTT(rttSample)
		}
		for s := c.sndUna; s < ack; s++ {
			delete(c.sentAt, s)
		}
		c.sndUna = ack
		c.Stats.DeliveredBytes += units.Bytes(newlyAcked) * c.cfg.MSS
		if c.metrics != nil {
			c.metrics.DeliveredBytes.Add(int64(units.Bytes(newlyAcked) * c.cfg.MSS))
		}
		c.dupAcks = 0
		c.backoff = 0

		if c.inRecovery {
			if ack >= c.recoverSeq {
				// Full recovery: deflate to ssthresh.
				c.inRecovery = false
				c.cwnd = c.ssthresh
				if c.metrics != nil {
					c.metrics.FastRecoveries.Inc()
				}
			} else {
				// NewReno partial ack: retransmit the next hole, keep
				// recovery going.
				c.transmit(c.sndUna, true)
			}
		} else {
			c.increaseWindow(newlyAcked, rttSample)
		}
		if c.sndUna == c.sndNxt {
			c.cancelRTO()
		} else {
			c.armRTOFresh()
		}
		c.trySend()

	case ack == c.sndUna && c.sndNxt > c.sndUna:
		c.dupAcks++
		switch {
		case c.dupAcks == 3 && !c.inRecovery:
			c.Stats.FastRetransmits++
			c.onVariantLoss()
			c.ssthresh = max64f(c.cwnd*c.lossBeta(), 2)
			c.cwnd = c.ssthresh + 3
			c.inRecovery = true
			c.recoverSeq = c.sndNxt
			if c.metrics != nil {
				c.metrics.FastRetransmits.Inc()
				c.metrics.Recorder.RecordAt(c.s.Now(), "tcp_fast_retx", c.flowName(),
					float64(c.sndUna), c.ssthresh)
			}
			if c.span != nil {
				// Annotation value: the deflated cwnd (= new ssthresh).
				c.span.AnnotateAt(c.s.Now(), "tcp.fast_retx", c.ssthresh)
			}
			c.transmit(c.sndUna, true)
		case c.dupAcks > 3 || (c.inRecovery && c.dupAcks >= 1):
			// Window inflation lets new data flow during recovery.
			c.cwnd++
			c.trySend()
		}
	}
	if c.metrics != nil {
		c.setWindowMetrics()
	}
}

// sampleRTT applies RFC 6298 smoothing and records the sample.
func (c *Conn) sampleRTT(rtt time.Duration) {
	if rtt <= 0 {
		return
	}
	c.Stats.RTTSamples++
	c.RTT.Add(rtt.Seconds() * 1000) // milliseconds in the digest
	if c.srtt == 0 {
		c.srtt = rtt
		c.rttvar = rtt / 2
	} else {
		d := c.srtt - rtt
		if d < 0 {
			d = -d
		}
		c.rttvar = (3*c.rttvar + d) / 4
		c.srtt = (7*c.srtt + rtt) / 8
	}
	c.rto = c.srtt + 4*c.rttvar
	if c.rto < c.cfg.MinRTO {
		c.rto = c.cfg.MinRTO
	}
	if c.metrics != nil {
		c.metrics.SRTT.Observe(c.srtt.Seconds() * 1000)
	}
}

// armRTO starts the retransmission timer if it is not running.
func (c *Conn) armRTO() {
	if !c.rtoTimer.Pending() {
		c.armRTOFresh()
	}
}

// armRTOFresh (re)starts the retransmission timer.
func (c *Conn) armRTOFresh() {
	c.cancelRTO()
	rto := c.rto << uint(c.backoff)
	if rto > time.Minute {
		rto = time.Minute
	}
	c.rtoTimer = c.s.Schedule(rto, c.rtoCb)
}

func (c *Conn) cancelRTO() {
	c.rtoTimer.Cancel()
	c.rtoTimer = sim.EventRef{}
}

// onRTO handles a retransmission timeout: multiplicative backoff, collapse
// to one segment and go-back-N from the first unacked segment.
func (c *Conn) onRTO() {
	c.rtoTimer = sim.EventRef{}
	if c.sndUna == c.sndNxt {
		return // everything acked in the meantime
	}
	c.Stats.Timeouts++
	if c.metrics != nil {
		rto := c.rto << uint(c.backoff)
		c.metrics.Timeouts.Inc()
		c.metrics.Recorder.RecordAt(c.s.Now(), "tcp_rto", c.flowName(),
			rto.Seconds()*1000, c.cwnd)
	}
	if c.span != nil {
		// Annotation value: the cwnd the timeout collapses.
		c.span.AnnotateAt(c.s.Now(), "tcp.rto", c.cwnd)
	}
	c.onVariantLoss()
	c.ssthresh = max64f(c.cwnd/2, 2)
	c.cwnd = 1
	c.inRecovery = false
	c.dupAcks = 0
	c.backoff++
	c.sndNxt = c.sndUna // go-back-N
	c.transmit(c.sndNxt, true)
	c.sndNxt++
	c.armRTOFresh()
	c.trySend()
	if c.metrics != nil {
		c.setWindowMetrics()
	}
}

// --- Client side ------------------------------------------------------

// handleClientPacket processes packets arriving at the client: SYN-ACKs and
// data segments.
func (c *Conn) handleClientPacket(p *sim.Packet) {
	if _, ok := p.Payload.(synAckPayload); ok {
		if c.state != stateEstablished {
			c.state = stateEstablished
			c.Stats.HandshakeComplete = true
			if c.metrics != nil {
				c.metrics.Established.Inc()
			}
			for _, r := range c.clientSide {
				c.sendRequest(r)
			}
			if c.onEstablished != nil {
				c.onEstablished()
			}
		}
		return
	}
	if p.IsAck {
		return
	}
	// Data segment.
	if p.Seq == c.rcvNxt {
		c.rcvNxt++
		for c.ooo[c.rcvNxt] {
			delete(c.ooo, c.rcvNxt)
			c.rcvNxt++
		}
	} else if p.Seq > c.rcvNxt {
		c.ooo[p.Seq] = true
	}
	// Immediate cumulative ack (dupacks arise naturally from gaps).
	ack := c.s.AllocPacket()
	ack.Flow, ack.IsAck, ack.Ack, ack.Size, ack.SentAt = c.flow, true, c.rcvNxt, ackSize, c.s.Now()
	c.rev.Send(ack)
	c.deliverToApp()
}

// deliverToApp fires request callbacks as contiguous data crosses request
// boundaries.
func (c *Conn) deliverToApp() {
	for len(c.clientSide) > 0 {
		r := c.clientSide[0]
		segs := int64((r.size + c.cfg.MSS - 1) / c.cfg.MSS)
		if segs == 0 {
			segs = 1
		}
		end := c.consumed + segs
		if !r.gotFirst && c.rcvNxt > c.consumed {
			r.gotFirst = true
			r.firstByteAt = c.s.Now()
			if r.onFirst != nil {
				r.onFirst(c.s.Now())
			}
		}
		if c.rcvNxt < end {
			return
		}
		c.consumed = end
		c.clientSide = c.clientSide[1:]
		if r.onComplete != nil {
			r.onComplete(FetchResult{
				Size:        r.size,
				RequestedAt: r.requestedAt,
				FirstByteAt: r.firstByteAt,
				DoneAt:      c.s.Now(),
			})
		}
	}
}

func max64f(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
