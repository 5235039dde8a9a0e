package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"time"

	"powerplay/internal/library"
	"powerplay/internal/repo"
	"powerplay/internal/shard"
	"powerplay/internal/web"
)

// tracePublishes is the traced pass's publish burst, alternating paths.
const tracePublishes = 20

// traceFleet hosts two backends and the router in-process, each behind
// a span-recording wrapper on its own loopback listener, and drives
// the fleet traffic through them.
func traceFleet(cfg config, rep *report, d time.Duration) error {
	blob, err := luminanceBlob()
	if err != nil {
		return err
	}
	log := &spanLog{}
	f := &fleet{}
	var servers []*web.Server
	var listeners []*httptest.Server
	f.close = func() {
		for _, hs := range listeners {
			hs.Close()
		}
		for _, s := range servers {
			s.Close()
		}
	}
	defer func() { f.close() }()
	for i := 0; i < fleetBackends; i++ {
		srv, err := web.NewServer(web.Config{
			SiteName: "perfbench", DataDir: filepath.Join(cfg.work, "trace-fleet", fmt.Sprintf("shard%d", i)),
			Durability: "interval", ShardID: i, ShardCount: fleetBackends,
		}, library.Standard())
		if err != nil {
			return err
		}
		servers = append(servers, srv)
		hs := httptest.NewServer(log.wrap("backend", srv.Handler()))
		listeners = append(listeners, hs)
		f.backend = append(f.backend, hs.URL)
	}
	rt, err := shard.NewRouter(shard.Config{Backends: f.backend})
	if err != nil {
		return err
	}
	hs := httptest.NewServer(log.wrap("router", rt.Handler()))
	listeners = append(listeners, hs)
	f.router = hs.URL
	if err := f.install(blob); err != nil {
		return err
	}

	perm := pagePerm(cfg.seed)
	var t tally
	fleetLoop(f, cfg.seed+1, perm, traceWarm, &t, nil, nil)
	untraced := fleetLoop(f, cfg.seed+2, perm, d/2, &t, nil, nil)

	c := newClient()
	defer c.close()
	const events, redirects = "powerplay_pagecache_events_total", "powerplay_shard_redirects_total"
	// The obs registry is process-wide: one scrape covers both backends.
	before, redirBefore := scrapeAll(c, f.backend[:1], events), scrapeAll(c, []string{f.router}, redirects)
	log.on.Store(true)
	echoes.on.Store(true)
	mem := startMem()
	ops := fleetLoop(f, cfg.seed, perm, d/2, &t, nil, nil)
	mem.report(rep, "fleet", len(ops))
	echoes.on.Store(false)

	// The publish burst, traced: which backend span served each path.
	w := newFleetWorker(f, cfg.seed, fleetClients, perm, &t)
	var pubs []*publication
	var visible []float64
	for i := 0; i < tracePublishes; i++ {
		t.attempted.Add(1)
		p, err := newPublication(i, cfg.seed)
		if err != nil {
			return err
		}
		ms, seen, err := probeVisible(w.c, p, f.router, f.cookies[0], f.backend, nil)
		if checkPublish(&t, p, len(f.backend), seen, err) && !p.json {
			visible = append(visible, ms)
		}
		pubs = append(pubs, p)
	}
	w.c.close()
	log.on.Store(false)
	after, redirAfter := scrapeAll(c, f.backend[:1], events), scrapeAll(c, []string{f.router}, redirects)
	rep.add(&t)
	overhead(rep, "fleet", msOf(untraced, func(op fleetOp) float64 { return op.ms }), msOf(ops, func(op fleetOp) float64 { return op.ms }))

	routerSpans, backendSpans, echo := log.byID("router"), log.byID("backend"), log.byID("echo")
	var getUs, hopUs, backendUs, netUs, echoUs, clientUs []float64
	for _, op := range ops {
		rs, bs := routerSpans[op.id], backendSpans[op.id]
		ne, ok := netEcho(op.id, echo)
		if len(rs) != 1 || len(bs) == 0 || !ok {
			continue
		}
		r, b := rs[0].us(), covered(bs)
		if op.kind != "play" {
			getUs = append(getUs, b)
		}
		hopUs = append(hopUs, r-b)
		backendUs = append(backendUs, b)
		netUs = append(netUs, op.ms*1e3-r)
		echoUs = append(echoUs, ne)
		clientUs = append(clientUs, op.ms*1e3)
	}
	var formUs, jsonUs []float64
	for _, p := range pubs {
		for _, s := range backendSpans[p.sentID] {
			switch s.path {
			case "/models/new":
				formUs = append(formUs, s.us())
			case "/api/v1/models":
				jsonUs = append(jsonUs, s.us())
			}
		}
	}
	hits := after[`event="page_hit"`] - before[`event="page_hit"`]
	misses := after[`event="page_miss"`] - before[`event="page_miss"`]
	rep.set("web.sheet_get_us", "us", median(getUs))
	rep.set("web.pagecache_hit_ratio", "ratio", hits/(hits+misses))
	rep.set("web.publish_form_us", "us", median(formUs))
	rep.set("web.publish_json_us", "us", median(jsonUs))
	rep.set("shard.hop_us", "us", median(hopUs))
	rep.set("shard.redirects", "count", redirAfter[""]-redirBefore[""])
	rep.set("shard.publish_visible_ms", "ms", median(visible))
	rep.set("shard.json_publish_unreplicated", "count", float64(t.unreplicated.Load()))
	rep.set("net.overhead_us.fleet", "us", median(netUs))
	rep.set("net.echo_us.fleet", "us", median(echoUs))
	if err := account(rep, "fleet", mean(clientUs), map[string]float64{
		"net (echo)": mean(echoUs), "shard.hop": mean(hopUs), "web.backend": mean(backendUs),
	}); err != nil {
		return err
	}

	digest, err := digestUs(pubs)
	if err != nil {
		return err
	}
	rep.set("repo.digest_us", "us", digest)
	syncMs, err := syncOnceMs(f.backend[0])
	if err != nil {
		return err
	}
	rep.set("repo.sync_once_ms", "ms", syncMs)
	rep.Info["fleet_trace_samples"] = len(clientUs)
	return nil
}

// digestUs times repo.Canonical + repo.Digest over each published
// body; the per-body figure is the mean of many calls, the result the
// median over bodies.
func digestUs(pubs []*publication) (float64, error) {
	const reps = 200
	var per []float64
	for _, p := range pubs {
		blob, err := json.Marshal(p.eq)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		for i := 0; i < reps; i++ {
			canon, err := repo.Canonical(blob)
			if err != nil {
				return 0, err
			}
			repo.Digest(canon)
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/1e3/reps)
	}
	return median(per), nil
}

// syncOnceMs times one full Syncer.SyncOnce pass of a fresh mirror of
// a backend's registry (median of several passes, each into an empty
// sink).
func syncOnceMs(base string) (float64, error) {
	src := &httpSource{c: newClient(), base: base}
	defer src.c.close()
	var ms []float64
	for i := 0; i < 5; i++ {
		sink := &memSink{m: map[string]string{}}
		s := repo.NewSyncer(src, sink, "perfbench", 0)
		start := time.Now()
		st, err := s.SyncOnce(context.Background())
		if err != nil {
			return 0, err
		}
		ms = append(ms, msSince(start))
		if st.Failed > 0 || len(sink.m) == 0 {
			return 0, fmt.Errorf("repo sync: %d failed, %d mirrored", st.Failed, len(sink.m))
		}
	}
	return median(ms), nil
}

// httpSource reads a site's registry over its public API.
type httpSource struct {
	c    *client
	base string
}

func (s *httpSource) Catalog(ctx context.Context) ([]repo.Entry, error) {
	var out []repo.Entry
	cursor := ""
	for {
		u := s.base + "/api/v1/registry"
		if cursor != "" {
			u += "?cursor=" + url.QueryEscape(cursor)
		}
		resp, err := s.c.do(http.MethodGet, u, "", "", nil)
		if err != nil {
			return nil, err
		}
		if resp.status != http.StatusOK {
			return nil, fmt.Errorf("registry: status %d", resp.status)
		}
		var page struct {
			Models     []repo.Entry `json:"models"`
			NextCursor string       `json:"next_cursor"`
		}
		if err := json.Unmarshal(resp.body, &page); err != nil {
			return nil, err
		}
		out = append(out, page.Models...)
		if page.NextCursor == "" {
			return out, nil
		}
		cursor = page.NextCursor
	}
}

func (s *httpSource) Fetch(ctx context.Context, name, digest string) ([]byte, error) {
	resp, err := s.c.do(http.MethodGet, s.base+"/api/v1/registry/models/"+repo.Ref(name, digest), "", "", nil)
	if err != nil {
		return nil, err
	}
	if resp.status != http.StatusOK {
		return nil, fmt.Errorf("registry body %s: status %d", name, resp.status)
	}
	return resp.body, nil
}

// memSink is a mirror that keeps digests only.
type memSink struct{ m map[string]string }

func (s *memSink) Mirrored() map[string]string { return s.m }
func (s *memSink) Apply(name, digest string, body []byte) error {
	s.m[name] = digest
	return nil
}
func (s *memSink) Remove(name string) error {
	delete(s.m, name)
	return nil
}
