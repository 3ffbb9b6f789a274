// Package abtest is the production-experiment harness: it generates a
// synthetic user population with a long-tailed access-capacity mix, runs
// paired control/treatment video sessions over the analytic path model, and
// summarizes metric movements as percent changes with bootstrap confidence
// intervals, in the format of the paper's Tables 2 and 3 and Figures 3, 5
// and 6.
package abtest

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/netmodel"
	"repro/internal/stats"
	"repro/internal/units"
)

// User is one simulated member device: a fixed access path, a persistent
// throughput history, and a pre-experiment throughput measurement used for
// the Fig 3 grouping.
type User struct {
	ID      int
	Path    netmodel.Path
	History *core.History
	// TopBitrate caps the user's ladder, modelling the §2.1 reality that "a
	// video provider will allow a particular device in a particular network
	// to use some subset of this ladder based on the user's plan, device
	// limitations, and other business policies". The cap is what makes the
	// paper's footnote-1 observation (median throughput ≈ 13× the average
	// bitrate) possible: most sessions stream far below their capacity.
	TopBitrate units.BitsPerSecond
	// PreExpThroughput is the 95th percentile of the user's chunk
	// throughput in a simulated pre-experiment week of control sessions,
	// matching §5.1's grouping variable.
	PreExpThroughput units.BitsPerSecond
	// Seed derives the user's per-session RNG streams so arms are paired.
	Seed int64
}

// PopulationConfig controls population synthesis.
type PopulationConfig struct {
	// Users is the population size. Required.
	Users int
	// MedianCapacity is the median access capacity. Default 55 Mbps, which
	// with the default ladder calibrates the "median throughput ≈ 13× the
	// average bitrate" observation from the paper's footnote 1.
	MedianCapacity units.BitsPerSecond
	// CapacitySigma is the lognormal σ of the capacity distribution.
	// Default 1.3, wide enough to populate every Fig 3 bucket from <6 Mbps
	// to >90 Mbps.
	CapacitySigma float64
	// MedianRTT is the median base RTT. Default 25 ms.
	MedianRTT time.Duration
	// RTTSigma is the lognormal σ of base RTTs. Default 0.4.
	RTTSigma float64
	// Faults, when set, applies a shared fault profile (burst loss, scripted
	// blackouts, bandwidth steps) to every user's path, so population A/B
	// runs can model a flaky-path cohort. The profile is pure configuration;
	// each user's connections derive their own deterministic fault state
	// from the user seed.
	Faults *fault.Profile
	// Seed seeds population generation.
	Seed int64
}

func (c PopulationConfig) withDefaults() PopulationConfig {
	if c.MedianCapacity <= 0 {
		c.MedianCapacity = 80 * units.Mbps
	}
	if c.CapacitySigma <= 0 {
		c.CapacitySigma = 1.3
	}
	if c.MedianRTT <= 0 {
		c.MedianRTT = 25 * time.Millisecond
	}
	if c.RTTSigma <= 0 {
		c.RTTSigma = 0.4
	}
	return c
}

// userDraw holds one user's sampled parameters before materialization. The
// split between drawing (pure RNG consumption, allocation-free) and
// materializing (*User construction) is what lets sharded runs regenerate
// only their user-id range: a shard fast-forwards the population stream
// through the users before its range without allocating them.
type userDraw struct {
	capacity     units.BitsPerSecond
	rtt          time.Duration
	ambientDelay time.Duration
	ambientLoss  float64
	topBitrate   units.BitsPerSecond
	seed         int64
}

// drawUser consumes one user's worth of the population RNG stream. The draw
// order is load-bearing: it defines the fixed-seed population, pinned by
// golden tests — never reorder these calls.
func drawUser(cfg PopulationConfig, rng *rand.Rand) userDraw {
	capacity := units.BitsPerSecond(float64(cfg.MedianCapacity) *
		math.Exp(rng.NormFloat64()*cfg.CapacitySigma))
	if capacity < 500*units.Kbps {
		capacity = 500 * units.Kbps
	}
	rtt := time.Duration(float64(cfg.MedianRTT) * math.Exp(rng.NormFloat64()*cfg.RTTSigma))
	if rtt < 2*time.Millisecond {
		rtt = 2 * time.Millisecond
	}
	// Ambient congestion the session does not control: cross traffic at
	// the access link and upstream. Both arms pay it, which keeps the
	// RTT and retransmit improvements from collapsing to zero floors
	// (the paper's -14% RTT / -35% retransmits, not -50%/-90%).
	ambientDelay := time.Duration(25e6 * math.Exp(rng.NormFloat64()*0.6)) // ~25 ms median
	ambientLoss := 2.5e-3 * math.Exp(rng.NormFloat64()*0.5)
	return userDraw{
		capacity:     capacity,
		rtt:          rtt,
		ambientDelay: ambientDelay,
		ambientLoss:  ambientLoss,
		topBitrate:   drawTopBitrate(rng),
		seed:         rng.Int63(),
	}
}

// materialize builds the *User for draw d with identity id.
func (d userDraw) materialize(cfg PopulationConfig, id int) *User {
	return &User{
		ID: id,
		Path: netmodel.Path{
			Capacity:          d.capacity,
			BaseRTT:           d.rtt,
			QueueBytes:        units.Bytes(1.2 * float64(d.capacity.BytesIn(d.rtt))),
			AmbientQueueDelay: d.ambientDelay,
			BaseLossRate:      d.ambientLoss,
			OnsetBurstLoss:    0.022,
			DropoutProb:       0.004,
			Faults:            cfg.Faults,
		},
		History:    &core.History{},
		TopBitrate: d.topBitrate,
		Seed:       d.seed,
	}
}

// GeneratePopulation synthesizes cfg.Users users with lognormal capacities
// and RTTs. Capacities are floored at 500 kbps (below that nobody streams).
func GeneratePopulation(cfg PopulationConfig) []*User {
	cfg = cfg.withDefaults()
	if cfg.Users <= 0 {
		panic("abtest: population needs at least one user")
	}
	return GenerateUserRange(cfg, 0, cfg.Users)
}

// GenerateUserRange materializes users [lo, hi) of the population that
// GeneratePopulation(cfg) would produce: the same single RNG stream is
// fast-forwarded through the first lo users without allocating them, so a
// sharded run holds only its shard's users in memory while seeing exactly
// the population the in-memory path sees. Cost of the skip is O(lo) RNG
// draws (a few hundred ns per user), which is what makes per-shard
// regeneration cheap relative to the sessions themselves.
func GenerateUserRange(cfg PopulationConfig, lo, hi int) []*User {
	cfg = cfg.withDefaults()
	if lo < 0 || hi < lo {
		panic("abtest: invalid user range")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < lo; i++ {
		drawUser(cfg, rng)
	}
	users := make([]*User, hi-lo)
	for i := range users {
		users[i] = drawUser(cfg, rng).materialize(cfg, lo+i)
	}
	return users
}

// drawTopBitrate samples the user's ladder cap: a plan/device/content mix
// where most sessions top out around HD bitrates and a minority stream 4K.
func drawTopBitrate(rng *rand.Rand) units.BitsPerSecond {
	switch r := rng.Float64(); {
	case r < 0.10:
		return 3 * units.Mbps // SD plans / mobile-class devices
	case r < 0.35:
		return 5.8 * units.Mbps // 1080p
	case r < 0.75:
		return 8.1 * units.Mbps // high-bitrate 1080p
	default:
		return 16.8 * units.Mbps // 4K
	}
}

// PreExpBuckets are the Fig 3 pre-experiment throughput groups.
var PreExpBuckets = []struct {
	Name string
	Lo   units.BitsPerSecond
	Hi   units.BitsPerSecond
}{
	{"<6Mbps", 0, 6 * units.Mbps},
	{"6-15Mbps", 6 * units.Mbps, 15 * units.Mbps},
	{"15-30Mbps", 15 * units.Mbps, 30 * units.Mbps},
	{"30-90Mbps", 30 * units.Mbps, 90 * units.Mbps},
	{">90Mbps", 90 * units.Mbps, units.BitsPerSecond(math.Inf(1))},
}

// BucketIndex maps a pre-experiment throughput to its Fig 3 bucket.
func BucketIndex(x units.BitsPerSecond) int {
	for i, b := range PreExpBuckets {
		if x >= b.Lo && x < b.Hi {
			return i
		}
	}
	return len(PreExpBuckets) - 1
}

// p95 returns the 95th percentile of xs, sorting xs in place.
func p95(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return stats.QuantileSorted(xs, 0.95)
}
