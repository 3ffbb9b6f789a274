package abtest

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/stats"
	"repro/internal/tdigest"
)

// This file holds the streaming side of the harness: instead of
// accumulating a []SessionRecord per arm (O(total sessions) memory, the
// reason a million-user run could not fit), sharded runs fold each session
// into mergeable sketches — a stats.Moments for Welch confidence intervals
// and a t-digest for medians — one pair per Table 2 metric plus one pair
// per Fig 3 pre-experiment bucket. Sketches merge exactly (Moments) or
// deterministically under a fixed merge order (t-digest), which is what
// makes a resumed run byte-identical to an uninterrupted one.

// sketchCompression sizes the per-metric t-digests. 200 keeps medians
// stable to well past the two decimals the tables print while holding each
// digest to a few hundred centroids.
const sketchCompression = 200

// MetricSketch is the mergeable streaming summary of one metric in one arm:
// exact first/second moments for Welch CIs plus a t-digest for quantiles.
type MetricSketch struct {
	Moments stats.Moments
	Digest  *tdigest.TDigest
}

func newMetricSketch() MetricSketch {
	return MetricSketch{Digest: tdigest.New(sketchCompression)}
}

// Add folds one sample into the sketch.
func (s *MetricSketch) Add(x float64) {
	s.Moments.Add(x)
	s.Digest.Add(x)
}

// Merge folds o into s. Merge order must be fixed (ascending shard index)
// for deterministic results: Moments merge exactly, but t-digest centroid
// layout depends on insertion order.
func (s *MetricSketch) Merge(o MetricSketch) {
	s.Moments.Merge(o.Moments)
	s.Digest.Merge(o.Digest)
}

// Median estimates the metric's median from the digest.
func (s MetricSketch) Median() float64 { return s.Digest.Quantile(0.5) }

// metricSketchSnapshot is the serialized form of a MetricSketch.
type metricSketchSnapshot struct {
	Moments stats.Moments    `json:"moments"`
	Digest  tdigest.Snapshot `json:"digest"`
}

func (s MetricSketch) snapshot() metricSketchSnapshot {
	return metricSketchSnapshot{Moments: s.Moments, Digest: s.Digest.Snapshot()}
}

func metricSketchFromSnapshot(snap metricSketchSnapshot) (MetricSketch, error) {
	d, err := tdigest.FromSnapshot(snap.Digest)
	if err != nil {
		return MetricSketch{}, err
	}
	return MetricSketch{Moments: snap.Moments, Digest: d}, nil
}

// ArmSketch aggregates one arm's streamed sessions: one MetricSketch per
// Table 2 metric (parallel to the Metrics slice) and one chunk-throughput
// sketch per Fig 3 pre-experiment bucket.
type ArmSketch struct {
	Name     string
	Sessions int
	// Errors counts users excluded because their session sequence failed
	// (recovered panics), mirroring ArmResult.Errors.
	Errors  int
	Metrics []MetricSketch
	Buckets []MetricSketch
}

// NewArmSketch returns an empty sketch for the named arm.
func NewArmSketch(name string) *ArmSketch {
	a := &ArmSketch{
		Name:    name,
		Metrics: make([]MetricSketch, len(Metrics)),
		Buckets: make([]MetricSketch, len(PreExpBuckets)),
	}
	for i := range a.Metrics {
		a.Metrics[i] = newMetricSketch()
	}
	for i := range a.Buckets {
		a.Buckets[i] = newMetricSketch()
	}
	return a
}

// reset empties a for reuse as the named arm's sketch, keeping the memory
// of its digests.
func (a *ArmSketch) reset(name string) {
	a.Name, a.Sessions, a.Errors = name, 0, 0
	for _, sketches := range [][]MetricSketch{a.Metrics, a.Buckets} {
		for i := range sketches {
			sketches[i].Moments = stats.Moments{}
			sketches[i].Digest.Reset()
		}
	}
}

// AddSession folds one session into every metric sketch and its Fig 3
// bucket's throughput sketch.
func (a *ArmSketch) AddSession(rec SessionRecord) {
	a.Sessions++
	for i, m := range Metrics {
		a.Metrics[i].Add(m.Get(rec.QoE))
	}
	tput := Metrics[0] // ChunkThroughputMbps, the Fig 3 metric
	a.Buckets[BucketIndex(rec.PreExp)].Add(tput.Get(rec.QoE))
}

// AddResult folds a whole in-memory ArmResult into the sketch, bridging the
// unsharded path into sketch-based reporting.
func (a *ArmSketch) AddResult(r ArmResult) {
	for _, rec := range r.Sessions {
		a.AddSession(rec)
	}
	a.Errors += r.Errors
}

// Merge folds o into a. Callers must merge shards in ascending shard order;
// see MetricSketch.Merge.
func (a *ArmSketch) Merge(o *ArmSketch) error {
	if o == nil {
		return nil
	}
	if o.Name != a.Name {
		return fmt.Errorf("abtest: merging arm sketch %q into %q", o.Name, a.Name)
	}
	if len(o.Metrics) != len(a.Metrics) || len(o.Buckets) != len(a.Buckets) {
		return fmt.Errorf("abtest: arm sketch %q has %d/%d sketches, want %d/%d",
			o.Name, len(o.Metrics), len(o.Buckets), len(a.Metrics), len(a.Buckets))
	}
	a.Sessions += o.Sessions
	a.Errors += o.Errors
	for i := range a.Metrics {
		a.Metrics[i].Merge(o.Metrics[i])
	}
	for i := range a.Buckets {
		a.Buckets[i].Merge(o.Buckets[i])
	}
	return nil
}

// armSketchSnapshot is the serialized form of an ArmSketch.
type armSketchSnapshot struct {
	Name     string                 `json:"name"`
	Sessions int                    `json:"sessions"`
	Errors   int                    `json:"errors,omitempty"`
	Metrics  []metricSketchSnapshot `json:"metrics"`
	Buckets  []metricSketchSnapshot `json:"buckets"`
}

func (a *ArmSketch) snapshot() armSketchSnapshot {
	snap := armSketchSnapshot{Name: a.Name, Sessions: a.Sessions, Errors: a.Errors}
	for _, m := range a.Metrics {
		snap.Metrics = append(snap.Metrics, m.snapshot())
	}
	for _, b := range a.Buckets {
		snap.Buckets = append(snap.Buckets, b.snapshot())
	}
	return snap
}

func armSketchFromSnapshot(snap armSketchSnapshot) (*ArmSketch, error) {
	if len(snap.Metrics) != len(Metrics) || len(snap.Buckets) != len(PreExpBuckets) {
		return nil, fmt.Errorf("abtest: arm sketch %q has %d/%d sketches, want %d/%d",
			snap.Name, len(snap.Metrics), len(snap.Buckets), len(Metrics), len(PreExpBuckets))
	}
	a := &ArmSketch{Name: snap.Name, Sessions: snap.Sessions, Errors: snap.Errors}
	for _, ms := range snap.Metrics {
		m, err := metricSketchFromSnapshot(ms)
		if err != nil {
			return nil, err
		}
		a.Metrics = append(a.Metrics, m)
	}
	for _, bs := range snap.Buckets {
		b, err := metricSketchFromSnapshot(bs)
		if err != nil {
			return nil, err
		}
		a.Buckets = append(a.Buckets, b)
	}
	return a, nil
}

// SketchRow is one metric movement computed from sketches: a Welch
// percent-change CI on means (the streaming substitute for the in-memory
// path's bootstrap) plus the percent change of the t-digest medians as the
// paper-style point estimate for median-summarized metrics.
type SketchRow struct {
	Metric string
	// MeanChg is the Welch 95% CI for the percent change of the mean.
	MeanChg stats.CI
	// MedianChgPct is the percent change of the estimated medians, NaN when
	// the control median is zero.
	MedianChgPct float64
}

// Significant reports whether the Welch interval excludes zero.
func (r SketchRow) Significant() bool { return r.MeanChg.Significant() }

// String formats like TableRow, with the median movement appended for the
// metrics the paper summarizes by median.
func (r SketchRow) String() string {
	point := "–    "
	if r.Significant() {
		point = fmt.Sprintf("%+.2f%%", r.MeanChg.Point)
	}
	s := fmt.Sprintf("%-22s %s [%.2f, %.2f]", r.Metric, point, r.MeanChg.Lo, r.MeanChg.Hi)
	if !math.IsNaN(r.MedianChgPct) {
		s += fmt.Sprintf("  median %+.2f%%", r.MedianChgPct)
	}
	return s
}

// CompareSketches builds Table 2/3-style rows for treatment vs control from
// streamed sketches.
func CompareSketches(treatment, control *ArmSketch) []SketchRow {
	rows := make([]SketchRow, 0, len(Metrics))
	for i, m := range Metrics {
		t, c := treatment.Metrics[i], control.Metrics[i]
		row := SketchRow{
			Metric:       m.Name,
			MeanChg:      stats.WelchPercentChangeFromMoments(t.Moments, c.Moments),
			MedianChgPct: math.NaN(),
		}
		// Sparse event metrics (rebuffers) are mean-summarized in the paper;
		// their median is legitimately zero, so no median column.
		if !strings.HasPrefix(m.Name, "Rebuffer") {
			if cm := c.Median(); cm != 0 && !math.IsNaN(cm) {
				row.MedianChgPct = 100 * (t.Median() - cm) / cm
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatSketchTable renders sketch rows with a title, mirroring FormatTable.
func FormatSketchTable(title string, rows []SketchRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %s\n", r)
	}
	return sb.String()
}

// BucketSketchRow is one Fig 3 group computed from sketches.
type BucketSketchRow struct {
	Bucket   string
	Sessions int
	// MeanChg is the Welch 95% CI for the chunk-throughput percent change.
	MeanChg stats.CI
	// MedianChgPct is the percent change of the estimated medians.
	MedianChgPct float64
}

// CompareBucketSketches builds the Fig 3 rows from streamed sketches.
func CompareBucketSketches(treatment, control *ArmSketch) []BucketSketchRow {
	rows := make([]BucketSketchRow, 0, len(PreExpBuckets))
	for i, b := range PreExpBuckets {
		t, c := treatment.Buckets[i], control.Buckets[i]
		row := BucketSketchRow{
			Bucket:       b.Name,
			Sessions:     int(t.Moments.Count),
			MeanChg:      stats.WelchPercentChangeFromMoments(t.Moments, c.Moments),
			MedianChgPct: math.NaN(),
		}
		if cm := c.Median(); cm != 0 && !math.IsNaN(cm) {
			row.MedianChgPct = 100 * (t.Median() - cm) / cm
		}
		rows = append(rows, row)
	}
	return rows
}
