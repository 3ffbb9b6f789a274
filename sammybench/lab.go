package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/abr"
	"repro/internal/core"
	"repro/internal/lab"
	"repro/internal/obs"
	"repro/internal/player"
	"repro/internal/units"
)

// The lab workload is the packet-level testbed behind Figs 7 and 8: the
// Fig 7 single-flow pair and the four Fig 8 neighbour studies at
// sammy-eval's settings. One slice is the whole set, on the run's seed.
const (
	labChunks      = 90
	labVideoChunks = 15
	labVideoTrials = 4
	labRate        = 40 * units.Mbps
	labBaseRTTms   = 5.0
	labMSS         = units.Bytes(1500) // tcp.Config's default segment size
)

// labSet is one round's results.
type labSet struct {
	control, sammy           lab.SingleFlowResult
	udp, tcpN, httpN, videoN lab.NeighborResult
}

// labStudies is the number of studies in a set, the workload's operations.
const labStudies = 6

// labWorkers run the set concurrently in the end-to-end mode, one goroutine
// each, so the workload keeps both CPUs of the host busy like the others do.
// The traced mode runs one worker, as sammy-lab and sammy-eval run studies:
// with obs installed, concurrent simulators would contend on the shared
// registry's counters and histograms, which the program never does.
const labWorkers = 2

// labTimes holds each study's wall times in seconds. A set's cost is
// estimated as the sum of the per-study medians.
type labTimes [labStudies][]float64

// round runs the set once, timing each study; controllers are built fresh
// per call.
func (lt *labTimes) round(seed int64, control, sammy func() *core.Controller, set *labSet) {
	studies := [labStudies]func(){
		func() { set.control = lab.SingleFlow(control(), labChunks, seed) },
		func() { set.sammy = lab.SingleFlow(sammy(), labChunks, seed) },
		func() { set.udp = lab.UDPNeighbor(labChunks, seed) },
		func() { set.tcpN = lab.TCPNeighbor(labChunks, seed) },
		func() { set.httpN = lab.HTTPNeighbor(labChunks, seed) },
		func() { set.videoN = lab.VideoNeighbor(labVideoChunks, labVideoTrials, seed) },
	}
	for k, study := range studies {
		t0 := time.Now()
		study()
		lt[k] = append(lt[k], time.Since(t0).Seconds())
	}
}

// labPhase is a timed phase: every worker's study times, the sets they
// produced, and the allocation and GC cycles of the whole phase.
type labPhase struct {
	times  labTimes
	sets   []labSet // one per worker
	rounds int
	alloc  float64
	gcs    uint32
}

// run runs whole rounds on each of workers goroutines until d has elapsed
// (at least two per worker).
func (p *labPhase) run(workers int, d time.Duration, seed int64, control, sammy func() *core.Controller) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	end := time.Now().Add(d)
	per := make([]labTimes, workers)
	p.sets = make([]labSet, workers)
	var wg sync.WaitGroup
	for w := range per {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for len(per[w][0]) < 2 || time.Now().Before(end) {
				per[w].round(seed, control, sammy, &p.sets[w])
			}
		}(w)
	}
	wg.Wait()
	runtime.ReadMemStats(&m1)
	p.alloc += float64(m1.TotalAlloc - m0.TotalAlloc)
	p.gcs += m1.NumGC - m0.NumGC
	for w := range per {
		p.rounds += len(per[w][0])
		for k := range per[w] {
			p.times[k] = append(p.times[k], per[w][k]...)
		}
	}
}

// sum adds a quantile of every study's times: the cost of one set.
func (p *labPhase) sum(q float64) float64 {
	var t float64
	for _, ts := range p.times {
		t += quantile(ts, q)
	}
	return t
}

// labCounters reads the obs counters the per-layer metrics use.
type labCounters struct{ simNs, events, segments, dropped int64 }

func readLabCounters(reg *obs.Registry) labCounters {
	return labCounters{
		simNs:    reg.Counter("sim_time_ns").Value(),
		events:   reg.Counter("sim_events_dispatched").Value(),
		segments: reg.Counter("tcp_segments_sent").Value(),
		dropped:  reg.Counter("sim_link_dropped_packets").Value(),
	}
}

func runLab(opts options) (*report, error) {
	rep := &report{}
	// Warm-up and instrumented pass: the simulated seconds of a set come
	// from the simulator's sim_time_ns counter, read once per run.
	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	var warmSet labSet
	var warmTimes labTimes
	warmTimes.round(opts.seed, lab.ControlController, lab.SammyController, &warmSet)
	obs.SetDefault(nil)
	warm := readLabCounters(reg)
	simS := float64(warm.simNs) / 1e9
	setup := setupDone()
	fmt.Fprintf(os.Stderr, "lab set: %.1f simulated s, %d events, %d TCP segments\n", simS, warm.events, warm.segments)

	var untimed labPhase
	phase, workers := opts.seconds, labWorkers
	if opts.traced {
		phase, workers = phase/2, 1
	}
	untimed.run(workers, phase, opts.seed, lab.ControlController, lab.SammyController)
	rep.attempted = int64(untimed.rounds) * labStudies
	rss := maxRSSMB()

	if opts.traced {
		zeroPerLayer(rep)
		if err := labTraced(opts, rep, simS, &untimed); err != nil {
			return nil, err
		}
	} else {
		rep.set("throughput", float64(workers)*simS/untimed.sum(0.5), "op/s")
		// One Fig 7 panel: the mean of the control and Sammy single flows.
		rep.set("latency_ms", 1000*(quantile(untimed.times[0], 0.5)+quantile(untimed.times[1], 0.5))/2, "ms")
		rep.set("alloc_kB_per_op", untimed.alloc/1024/(simS*float64(untimed.rounds)), "kB")
		rep.set("max_rss_MB", rss, "MB")
		rep.set("setup_s", setup, "s")
	}

	for i, set := range untimed.sets {
		labChecks(rep, set)
		rep.check(sameLabSet(set, warmSet), "worker %d's set disagrees with the instrumented set", i)
	}
	attain := labConservation(rep, opts.seed)
	if !opts.traced {
		rep.set("pace_attainment_pct", attain, "%")
	}
	return rep, nil
}

// sameLabSet reports whether two runs of the set produced the same results,
// which a deterministic simulator must.
func sameLabSet(a, b labSet) bool {
	return a.control.QoE == b.control.QoE && a.sammy.QoE == b.sammy.QoE &&
		a.control.Retransmit == b.control.Retransmit && a.sammy.Retransmit == b.sammy.Retransmit &&
		a.udp == b.udp && a.tcpN == b.tcpN && a.httpN == b.httpN && a.videoN == b.videoN
}

// labTraced runs the traced half on one worker: obs metrics installed in
// every simulator, the Fig 7 pair's ABR decisions timed, and a CPU profile.
func labTraced(opts options, rep *report, simS float64, untimed *labPhase) error {
	var abrT abrTimer
	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	defer obs.SetDefault(nil)
	control := func() *core.Controller { return core.NewControl(timedABR{abr.Production{}, &abrT}) }
	sammy := func() *core.Controller {
		return core.NewSammy(timedABR{abr.Production{}, &abrT}, core.DefaultC0, core.DefaultC1)
	}
	prof, err := startProfile()
	if err != nil {
		return err
	}
	var traced labPhase
	traced.run(1, opts.seconds/2, opts.seed, control, sammy)
	self, err := prof.stop(traceFile(opts, "lab", "cpu.pprof"))
	if err != nil {
		return err
	}
	rep.attempted += int64(traced.rounds) * labStudies

	c := readLabCounters(reg)
	tracedSimS := float64(c.simNs) / 1e9
	for m, ms := range self {
		rep.set(m+".self_ms_per_op", ms/tracedSimS, "ms")
	}
	rep.set("runtime.gc_cycles_per_kop", 1000*float64(untimed.gcs)/(simS*float64(untimed.rounds)), "count")
	rep.set("abr.decide_ns", float64(abrT.ns.Load())/float64(abrT.calls.Load()), "ns")
	rep.set("abr.decisions_per_op", float64(abrT.calls.Load())/tracedSimS, "count")
	rep.set("sim.events_per_op", float64(c.events)/tracedSimS, "count")
	rep.set("tcp.segments_per_op", float64(c.segments)/tracedSimS, "count")
	rep.set("sim.dropped_packets", float64(c.dropped)/float64(traced.rounds), "count")
	rep.set("obs.trace_overhead_pct", overheadPct(traced.sum(0.5), untimed.sum(0.5)), "%")
	return writeTraceArtifacts(opts, "lab", rep, reg, nil)
}

// labChecks checks a set's outputs against the link's physical bounds and
// the paper's Fig 7, 8a and 8b directions.
func labChecks(rep *report, set labSet) {
	for _, f := range []struct {
		name string
		r    lab.SingleFlowResult
	}{{"control", set.control}, {"sammy", set.sammy}} {
		for i, v := range f.r.Throughput.Values {
			if v > labRate.Mbps()*(1+1e-9) {
				rep.check(false, "%s: 250 ms bin %d carries %.3f Mbps over the %.0f Mbps bottleneck", f.name, i, v, labRate.Mbps())
				break
			}
		}
		for i, v := range f.r.RTT.Values {
			if v < labBaseRTTms {
				rep.check(false, "%s: RTT sample %d is %.3f ms, below the %.0f ms base RTT", f.name, i, v, labBaseRTTms)
				break
			}
		}
		rep.check(len(f.r.Throughput.Values) > 0 && len(f.r.RTT.Values) > 0, "%s: empty Fig 7 series", f.name)
	}
	rep.check(set.sammy.RTT.Mean() < set.control.RTT.Mean(),
		"Fig 7: Sammy mean RTT %.2f ms is not below control's %.2f ms", set.sammy.RTT.Mean(), set.control.RTT.Mean())
	rep.check(set.sammy.Retransmit <= set.control.Retransmit,
		"Fig 7: Sammy retransmit fraction %.4f exceeds control's %.4f", set.sammy.Retransmit, set.control.Retransmit)
	rep.check(set.udp.Sammy < set.udp.Control, "Fig 8a: UDP delay %.2f → %.2f ms does not improve", set.udp.Control, set.udp.Sammy)
	rep.check(set.tcpN.Sammy > set.tcpN.Control, "Fig 8b: TCP throughput %.2f → %.2f Mbps does not improve", set.tcpN.Control, set.tcpN.Sammy)
	// Figs 8c and 8d reverse on a few seeds at sammy-eval's settings (about
	// 2 % of seeds each), so their direction cannot gate a run whose seed is
	// arbitrary; it goes to standard error.
	fmt.Fprintf(os.Stderr, "lab Fig 8c HTTP response %.1f → %.1f ms, Fig 8d video play delay %.1f → %.1f ms (control → Sammy)\n",
		set.httpN.Control, set.httpN.Sammy, set.videoN.Control, set.videoN.Sammy)
}

// labConservation rebuilds the Fig 7 flows on their own topologies and
// checks that the bytes the player accounted equal the bytes TCP delivered.
// The simulated TCP is packet-granular: each response occupies whole
// segments, so the player's chunk sizes are rounded up to segments first.
// It returns the Sammy flow's pace attainment: the mean over its paced
// chunks of the time the chunk would take at exactly its pace rate over the
// time it took, capped at 1, in percent.
func labConservation(rep *report, seed int64) float64 {
	var sum float64
	var paced int
	for _, f := range []struct {
		name string
		ctrl *core.Controller
	}{{"control", lab.ControlController()}, {"sammy", lab.SammyController()}} {
		topo := lab.NewTopology(lab.Config{})
		var played units.Bytes
		p, conn := topo.VideoSession(1, f.ctrl, labChunks, seed, func(ev player.ChunkEvent) {
			played += max(1, (ev.Size+labMSS-1)/labMSS) * labMSS
			if ev.PaceRate > 0 {
				sum += math.Min(1, float64(ev.Size)*8/float64(ev.PaceRate)/(ev.End-ev.Start).Seconds())
				paced++
			}
		})
		p.Start()
		topo.S.RunUntil(time.Duration(labChunks) * 8 * time.Second)
		rep.check(p.Done(), "%s: session did not finish", f.name)
		rep.check(played == conn.Stats.DeliveredBytes,
			"%s: player accounted %d bytes in whole segments, TCP delivered %d", f.name, played, conn.Stats.DeliveredBytes)
	}
	if paced == 0 {
		rep.check(false, "sammy flow paced no chunk")
		return 0
	}
	return 100 * sum / float64(paced)
}
