package main

// The explore workload: batch design-space exploration through the
// public facade, in-process, one caller.  Every operation is a
// fixed-size characterization session on the paper's Luminance_2
// design (Figure 3): one Sweep2D grid, which takes the columnar path,
// plus a batch of MinSupply/VoltageScale searches, which take the
// scalar path.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"powerplay"
)

const (
	exploreGridV    = 32  // vdd points per grid
	exploreGridF    = 32  // f points per grid
	exploreSearches = 48  // MinSupply/VoltageScale searches per op, alternating
	exploreRevisit  = 0.2 // share of ops that repeat one of the last exploreRing ops
	exploreRing     = 4   // how far back a revisit may reach
	exploreCacheCap = 1 << 15
	exploreSetups   = 31  // timed set-up groups per run; setup_s is their median
	exploreGroup    = 100 // set-ups per group, timed together (one takes ~0.1 ms)
	exploreChecks   = 4   // grid points per op checked against EvaluateAt
	exploreVDDLo    = 0.9
	exploreVDDHi    = 3.3
)

// exploreSession is one characterization session's inputs.
type exploreSession struct {
	vdd, f  []float64
	targets []float64 // clock targets, one per search
}

// exploreBench is the set-up state: the design, the runner with its
// cache, and the frequency the design reaches at the top supply.
type exploreBench struct {
	reg    *powerplay.Registry
	d      *powerplay.Design
	runner *powerplay.ExploreRunner
	cache  *powerplay.ExploreCache
	fmax   float64
	f0     float64
}

func setupExplore() (*exploreBench, error) {
	reg := powerplay.StandardLibrary()
	d, err := powerplay.Luminance2(reg)
	if err != nil {
		return nil, err
	}
	cache := powerplay.NewExploreCache(exploreCacheCap)
	b := &exploreBench{reg: reg, d: d, cache: cache, runner: &powerplay.ExploreRunner{Cache: cache}}
	top, err := d.EvaluateAt(map[string]float64{"vdd": exploreVDDHi})
	if err != nil {
		return nil, err
	}
	b.fmax = 1 / float64(top.Delay)
	if g := d.Root.Global("f"); g != nil {
		b.f0, _ = g.Const()
	}
	if b.f0 == 0 {
		return nil, fmt.Errorf("design has no constant clock f")
	}
	return b, nil
}

// newSession draws fresh session inputs: continuous seeded offsets, so
// a fresh grid never coincides with an earlier one.
func (b *exploreBench) newSession(rng *rand.Rand) exploreSession {
	lo := 1.0 + rng.Float64()*0.5
	flo := b.f0 * (0.5 + rng.Float64()*0.5)
	s := exploreSession{
		vdd: powerplay.Linspace(lo, lo+1.5, exploreGridV),
		f:   powerplay.Linspace(flo, flo*2, exploreGridF),
	}
	for i := 0; i < exploreSearches; i++ {
		s.targets = append(s.targets, b.fmax*(0.2+0.6*rng.Float64()))
	}
	return s
}

// exploreSpan receives the layer timings of one op in traced runs.
type exploreSpan func(layer string, d time.Duration)

// run executes one session and checks a seeded sample of its output
// against Design.EvaluateAt, bit for bit.
func (b *exploreBench) run(s exploreSession, rng *rand.Rand, t *tally, span exploreSpan) (time.Duration, bool) {
	ctx := context.Background()
	t.attempted.Add(1)
	start := time.Now()
	pts, err := b.runner.Sweep2D(ctx, b.d, "vdd", s.vdd, "f", s.f)
	if err != nil {
		t.fail("sweep2d: "+err.Error(), true)
		return 0, false
	}
	if span != nil {
		span("explore.sweep2d", time.Since(start))
	}
	mins := make([]float64, len(s.targets))
	scales := make([]powerplay.SupplySavings, len(s.targets))
	for i, ft := range s.targets {
		ts := time.Now()
		if i%2 == 0 {
			mins[i], err = b.runner.MinSupply(ctx, b.d, ft, exploreVDDLo, exploreVDDHi)
			if span != nil {
				span("explore.minsupply", time.Since(ts))
			}
		} else {
			scales[i], err = b.runner.VoltageScale(ctx, b.d, ft, exploreVDDLo, exploreVDDHi)
			if span != nil {
				span("explore.voltagescale", time.Since(ts))
			}
		}
		if err != nil {
			t.fail("search: "+err.Error(), true)
			return 0, false
		}
	}
	elapsed := time.Since(start)

	// Output checks, outside the timed interval.
	if len(pts) != len(s.vdd)*len(s.f) {
		t.fail("sweep2d: wrong point count", true)
		return elapsed, false
	}
	for k := 0; k < exploreChecks; k++ {
		p := pts[rng.Intn(len(pts))]
		r, err := b.d.EvaluateAt(p.Vars)
		if err != nil || float64(r.Power) != p.Power || float64(r.Area) != p.Area || float64(r.Delay) != p.Delay {
			t.fail("sweep2d: point differs from EvaluateAt", true)
			return elapsed, false
		}
	}
	for i, ft := range s.targets {
		if i%2 == 0 {
			r, err := b.d.EvaluateAt(map[string]float64{"vdd": mins[i]})
			if err != nil || float64(r.Delay) > 1/ft {
				t.fail("minsupply: supply misses the clock target", true)
				return elapsed, false
			}
			continue
		}
		sv := scales[i]
		rmin, err1 := b.d.EvaluateAt(map[string]float64{"vdd": sv.MinVDD})
		rnom, err2 := b.d.EvaluateAt(map[string]float64{"vdd": sv.NominalVDD})
		if err1 != nil || err2 != nil || float64(rmin.Power) != sv.MinPower || float64(rnom.Power) != sv.NominalPower {
			t.fail("voltagescale: power differs from EvaluateAt", true)
			return elapsed, false
		}
	}
	return elapsed, true
}

// loop runs sessions while more reports true: fresh ones, and a seeded
// share that repeat one of the last few (cache hits).
func (b *exploreBench) loop(rng *rand.Rand, more func() bool, t *tally, span exploreSpan) (lat []sample, revisits int) {
	var ring []exploreSession
	for more() {
		var s exploreSession
		if len(ring) > 0 && rng.Float64() < exploreRevisit {
			s = ring[rng.Intn(len(ring))]
			revisits++
		} else {
			s = b.newSession(rng)
			ring = append(ring, s)
			if len(ring) > exploreRing {
				ring = ring[1:]
			}
		}
		if el, ok := b.run(s, rng, t, span); ok {
			lat = append(lat, sample{end: time.Now(), ms: float64(el.Nanoseconds()) / 1e6})
		}
	}
	return lat, revisits
}

const exploreWarm = time.Second

func runExplore(cfg config, rep *report) error {
	// Each group of exploreGroup set-ups is timed as a whole and gives
	// one set-up time, its mean.  Every group starts from a collected
	// heap, so each pays for the collections its own garbage causes.
	var setups []float64
	var b *exploreBench
	for i := 0; i < exploreSetups; i++ {
		runtime.GC()
		start := time.Now()
		for k := 0; k < exploreGroup; k++ {
			var err error
			if b, err = setupExplore(); err != nil {
				return err
			}
		}
		setups = append(setups, time.Since(start).Seconds()/exploreGroup)
	}
	var wt tally
	rng := rand.New(rand.NewSource(cfg.seed))
	b.loop(rng, until(exploreWarm), &wt, nil)
	if wt.failed.Load() > 0 {
		return fmt.Errorf("warm-up failed: %v", wt.failures())
	}
	var t tally
	h0, m0 := b.cache.Stats()
	host := startSteal()
	lat, revisits := b.loop(rng, until(secs(cfg.seconds)), &t, nil)
	host.stop()
	h1, m1 := b.cache.Stats()
	reportSetup(rep, setups)
	if err := reportLoop(rep, lat, host); err != nil {
		return err
	}
	rep.set("rss_mb", "MB", hwmMB(os.Getpid()))
	rep.add(&t)
	rep.Info["params"] = map[string]any{
		"design": "Luminance_2", "grid": fmt.Sprintf("%dx%d vdd x f", exploreGridV, exploreGridF),
		"searches_per_op": exploreSearches, "revisit_share": exploreRevisit,
		"revisits": revisits, "cache_hit_ratio": float64(h1-h0) / float64(h1-h0+m1-m0),
		"setup_groups": exploreSetups, "setups_per_group": exploreGroup, "warmup_s": exploreWarm.Seconds(),
	}
	rep.Info["failures"] = t.failures()
	return nil
}
