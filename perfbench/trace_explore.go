package main

import (
	"math/rand"
	"time"
)

// traceExplore times the facade calls of each session: the Sweep2D
// grid (columnar path) and the MinSupply/VoltageScale searches
// (scalar path).
func traceExplore(cfg config, rep *report, d time.Duration) error {
	b, err := setupExplore()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	var t tally
	b.loop(rng, until(traceWarm), &t, nil)
	untraced, _ := b.loop(rng, until(d/2), &t, nil)

	var sweeps, mins, scales, searchSum []float64
	var opSearch float64
	span := func(layer string, el time.Duration) {
		us := float64(el.Nanoseconds()) / 1e3
		switch layer {
		case "explore.sweep2d":
			sweeps = append(sweeps, us)
			if len(sweeps) > 1 {
				searchSum = append(searchSum, opSearch)
			}
			opSearch = 0
		case "explore.minsupply":
			mins = append(mins, us)
			opSearch += us
		case "explore.voltagescale":
			scales = append(scales, us)
			opSearch += us
		}
	}
	h0, m0 := b.cache.Stats()
	mem := startMem()
	traced, _ := b.loop(rng, until(d/2), &t, span)
	mem.report(rep, "explore", len(traced))
	h1, m1 := b.cache.Stats()
	searchSum = append(searchSum, opSearch)
	rep.add(&t)
	latency := func(s sample) float64 { return s.ms }
	overhead(rep, "explore", msOf(untraced, latency), msOf(traced, latency))

	points := float64(exploreGridV * exploreGridF)
	var rates []float64
	for _, us := range sweeps {
		rates = append(rates, points/(us/1e6))
	}
	clientUs := msOf(traced, func(s sample) float64 { return s.ms * 1e3 })
	total := sum(clientUs)
	rep.set("explore.sweep2d_us", "us", median(sweeps))
	rep.set("explore.sweep_points_per_s", "1/s", median(rates))
	rep.set("explore.minsupply_us", "us", median(mins))
	rep.set("explore.voltagescale_us", "us", median(scales))
	rep.set("explore.cache_hit_ratio", "ratio", float64(h1-h0)/float64(h1-h0+m1-m0))
	rep.set("explore.columnar_share", "ratio", sum(sweeps)/total)
	rep.set("explore.scalar_share", "ratio", sum(searchSum)/total)
	if err := account(rep, "explore", mean(clientUs), map[string]float64{
		"explore.sweep2d": mean(sweeps), "explore.searches": mean(searchSum),
	}); err != nil {
		return err
	}
	rep.Info["explore_trace_samples"] = len(traced)
	return nil
}
