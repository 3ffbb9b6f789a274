package lab

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"regexp"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netmodel"
	otrace "repro/internal/obs/trace"
	"repro/internal/player"
	"repro/internal/units"
	"repro/internal/video"
)

// goldenNetmodelTraceHash is the FNV-1a hash of the fixed-seed netmodel
// session trace produced below. Tracing must be an observer: span streams
// on fixed seeds are part of the deterministic surface (DESIGN.md §12), so
// any change to span emission order, naming, attributes or sim-clock
// timestamps shows up here. If you change the span taxonomy on purpose,
// rerun with -run TestNetmodelTraceGolden -v and update the constant.
const goldenNetmodelTraceHash = "7061621926e623f1"

// netmodelTraceJSONL runs one fixed-seed analytic-fidelity session with an
// explicitly injected tracer and returns the JSONL export.
func netmodelTraceJSONL(t *testing.T, tr *otrace.Tracer) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	title := video.NewTitle(video.DefaultLadder(), 4*time.Second, 30, rng)
	path := netmodel.Path{
		Capacity: 20 * units.Mbps,
		BaseRTT:  30 * time.Millisecond,
	}
	player.Run(player.Config{
		Controller: SammyController(),
		Title:      title,
		History:    &core.History{},
		Trace:      tr.Session("golden/netmodel"),
	}, path, rng, nil)
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("tracer dropped %d spans during a golden run", tr.Dropped())
	}
	return buf.Bytes()
}

// TestNetmodelTraceGolden locks byte-identical traces on the analytic
// fidelity: two same-seed runs export the same JSONL, and the stream
// matches the pinned golden hash.
func TestNetmodelTraceGolden(t *testing.T) {
	a := netmodelTraceJSONL(t, otrace.New())
	b := netmodelTraceJSONL(t, otrace.New())
	if !bytes.Equal(a, b) {
		t.Fatal("two same-seed netmodel runs exported different traces")
	}
	if len(a) == 0 || !bytes.Contains(a, []byte("netmodel.download")) {
		t.Fatalf("trace missing expected spans:\n%.500s", a)
	}
	h := fnv.New64a()
	h.Write(a)
	if got := fmt.Sprintf("%016x", h.Sum64()); got != goldenNetmodelTraceHash {
		t.Errorf("netmodel trace hash = %s, want %s\n"+
			"(fixed-seed span stream changed: only acceptable for intentional "+
			"changes to the span taxonomy — update the constant if so)", got, goldenNetmodelTraceHash)
	}
}

// runNumber rewrites the process-global topology counter out of trace ids:
// two in-process runs of the same experiment land on different run numbers
// by design (they are distinct topologies), but are otherwise identical.
var runNumber = regexp.MustCompile(`run[0-9]+/`)

// simTraceJSONL runs one fixed-seed packet-level single-flow experiment
// with the process tracer installed (the lab wires trace ids only through
// trace.Default) and returns the normalized JSONL export.
func simTraceJSONL(t *testing.T) []byte {
	t.Helper()
	tr := otrace.New()
	old := otrace.Default()
	otrace.SetDefault(tr)
	defer otrace.SetDefault(old)
	SingleFlow(SammyController(), 10, 3)
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("tracer dropped %d spans during a golden run", tr.Dropped())
	}
	return runNumber.ReplaceAll(buf.Bytes(), []byte("runN/"))
}

// TestSimTraceDeterminism locks byte-identical traces on the packet-level
// fidelity: two same-seed SingleFlow runs export the same span stream
// (modulo the topology run number in the trace id).
func TestSimTraceDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("lab experiment")
	}
	a := simTraceJSONL(t)
	b := simTraceJSONL(t)
	if !bytes.Equal(a, b) {
		t.Fatal("two same-seed sim runs exported different traces")
	}
	for _, kind := range []string{"player.session", "player.chunk", "tcp.fetch", "abr.decide"} {
		if !bytes.Contains(a, []byte(kind)) {
			t.Errorf("sim trace missing %s spans", kind)
		}
	}
}
