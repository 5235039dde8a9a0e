package main

// The fleet workload: the real binary as one router (-mode router) in
// front of two backends (-shard-count 2), driven by two closed-loop
// connections.  The traffic is mostly reads — skewed, seeded sheet
// GETs, some conditional, over more pages than the backends' page
// caches hold — plus a few Plays by page owners and occasional model
// publishes that alternate between the form and the JSON path.

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"powerplay/internal/library"
	"powerplay/internal/shard"
	"powerplay/internal/vqsim"
)

const (
	fleetBackends   = 2
	fleetClients    = 2
	fleetUsers      = 40
	fleetDesigns    = 16 // per user: 640 pages against 2 x 256 cache entries
	fleetZipfS      = 1.2
	fleetCondShare  = 0.4  // reads sent with If-None-Match (when an ETag is known)
	fleetPlayShare  = 0.02 // ops that are owner Plays
	fleetPublishGap = 5 * time.Second
	fleetBurst      = 32 // publishes after the loop, alternating paths
	fleetBoots      = 15 // set-ups per run; setup_s is their median
	fleetWarm       = time.Second
)

// fleetVals are the fixed values owner Plays cycle through.
var fleetVals = map[string][]string{
	"vdd": {"1.2", "1.5", "1.8", "2.5"},
	"f":   {"1e6", "2e6", "4e6"},
}

// fleet is one running fleet: processes, front door, users' cookies.
type fleet struct {
	router  string
	backend []string
	procs   []*proc
	cookies []string // per user
	dir     string   // data directories
	close   func()
}

func pageName(d int) string { return fmt.Sprintf("p%02d", d) }
func userName(u int) string { return fmt.Sprintf("user%02d", u) }

// bootFleet starts the fleet from empty data directories and installs
// every user's pages through the router: the set-up setup_s times.
func bootFleet(bin, dir string, blob []byte) (*fleet, error) {
	f := &fleet{dir: dir}
	f.close = func() {
		for _, p := range f.procs {
			p.stop()
		}
	}
	for i := 0; i < fleetBackends; i++ {
		p, err := startProc(bin, "-addr", "127.0.0.1:0", "-data", filepath.Join(dir, fmt.Sprintf("shard%d", i)),
			"-durability", "interval", "-shard-id", strconv.Itoa(i), "-shard-count", strconv.Itoa(fleetBackends),
			"-site", "perfbench")
		if err != nil {
			f.close()
			return nil, err
		}
		f.procs = append(f.procs, p)
		f.backend = append(f.backend, p.url)
	}
	rp, err := startProc(bin, "-mode", "router", "-addr", "127.0.0.1:0", "-backends", strings.Join(f.backend, ","))
	if err != nil {
		f.close()
		return nil, err
	}
	f.procs = append(f.procs, rp)
	f.router = rp.url
	if err := f.install(blob); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *fleet) install(blob []byte) error {
	f.cookies = make([]string, fleetUsers)
	errs := make(chan error, fleetClients)
	for w := 0; w < fleetClients; w++ {
		go func(w int) {
			c := newClient()
			defer c.close()
			for u := w; u < fleetUsers; u += fleetClients {
				ck, err := c.login(f.router, userName(u))
				if err != nil {
					errs <- err
					return
				}
				f.cookies[u] = ck
				for d := 0; d < fleetDesigns; d++ {
					if err := c.importDesign(f.router, ck, pageName(d), blob); err != nil {
						errs <- err
						return
					}
				}
			}
			errs <- nil
		}(w)
	}
	var first error
	for w := 0; w < fleetClients; w++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// fleetOp is one completed, checked read or Play.
type fleetOp struct {
	kind string // "read", "cond" (conditional read), "play"
	code int
	ms   float64
	end  time.Time
	id   string
}

// fleetWorker is one generator connection's state.
type fleetWorker struct {
	f     *fleet
	c     *client
	rng   *rand.Rand
	zipf  *rand.Zipf
	perm  []int
	etags map[int]string
	t     *tally
	ops   []fleetOp
}

func newFleetWorker(f *fleet, seed int64, w int, perm []int, t *tally) *fleetWorker {
	rng := rand.New(rand.NewSource(seed*100 + int64(w)))
	return &fleetWorker{
		f: f, c: newClient(), rng: rng, perm: perm, t: t, etags: map[int]string{},
		zipf: rand.NewZipf(rng, fleetZipfS, 1, uint64(len(perm)-1)),
	}
}

// step makes one read or Play on a skewed, seeded page.
func (w *fleetWorker) step() {
	defer echoes.after(w.c)
	page := w.perm[w.zipf.Uint64()]
	user, design := page/fleetDesigns, pageName(page%fleetDesigns)
	cookie := w.f.cookies[user]
	u := w.f.router + "/design/" + design
	w.t.attempted.Add(1)
	op := fleetOp{kind: "read"}
	var resp response
	var err error
	start := time.Now()
	switch r := w.rng.Float64(); {
	case r < fleetPlayShare:
		op.kind = "play"
		name := "vdd"
		if w.rng.Intn(2) == 1 {
			name = "f"
		}
		vals := fleetVals[name]
		body := url.Values{"glob_" + name: {vals[w.rng.Intn(len(vals))]}}.Encode()
		start = time.Now()
		resp, err = w.c.do(http.MethodPost, u+"/play", cookie, formType, []byte(body))
	case r < fleetPlayShare+fleetCondShare && w.etags[page] != "":
		op.kind = "cond"
		start = time.Now()
		resp, err = w.c.do(http.MethodGet, u, cookie, "", nil, "If-None-Match", w.etags[page])
	default:
		start = time.Now()
		resp, err = w.c.do(http.MethodGet, u, cookie, "", nil)
	}
	op.ms, op.end = msSince(start), time.Now()
	if err != nil {
		w.t.fail(op.kind+": transport", false)
		return
	}
	op.code, op.id = resp.status, resp.id
	switch {
	case resp.status == http.StatusNotModified && op.kind == "cond":
	case resp.status == http.StatusOK:
		if !bytes.Contains(resp.body, []byte("- "+design+" summary</title>")) {
			w.t.fail(op.kind+": page is not the requested design", true)
			return
		}
		if et := resp.header.Get("ETag"); et != "" {
			w.etags[page] = et
		}
	default:
		w.t.fail(fmt.Sprintf("%s: status %d", op.kind, resp.status), true)
		return
	}
	w.ops = append(w.ops, op)
}

// publish makes one publish through the router and probes every
// backend until it evaluates there; the worker keeps reading between
// probe rounds.
func (w *fleetWorker) publish(seq int, seed int64, vis map[string][]float64) {
	for k, v := range publishProbe(w.c, w.f.router, w.f.cookies[0], w.f.backend, seq, 1, seed, w.t, w.step) {
		vis[k] = append(vis[k], v...)
	}
}

// fleetLoop drives both connections until the deadline.  Connection 0
// also publishes every fleetPublishGap.
func fleetLoop(f *fleet, seed int64, perm []int, d time.Duration, t *tally, pubSeq *int, vis map[string][]float64) []fleetOp {
	var mu sync.Mutex
	var all []fleetOp
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i := 0; i < fleetClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := newFleetWorker(f, seed, i, perm, t)
			defer w.c.close()
			next := start.Add(fleetPublishGap / 2)
			for time.Now().Before(deadline) {
				if i == 0 && pubSeq != nil && time.Now().After(next) {
					w.publish(*pubSeq, seed, vis)
					*pubSeq++
					next = next.Add(fleetPublishGap)
					continue
				}
				w.step()
			}
			mu.Lock()
			all = append(all, w.ops...)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	return all
}

// pagePerm maps Zipf ranks to pages: a seeded shuffle of each
// backend's pages, interleaved so that ranks alternate between the
// backends and the hot pages split evenly between them whatever the
// seed.
func pagePerm(seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	owned := make([][]int, fleetBackends)
	for p := 0; p < fleetUsers*fleetDesigns; p++ {
		b := shard.Owner(userName(p/fleetDesigns), fleetBackends)
		owned[b] = append(owned[b], p)
	}
	for _, ps := range owned {
		rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
	}
	var perm []int
	for i := 0; len(perm) < fleetUsers*fleetDesigns; i++ {
		for _, ps := range owned {
			if i < len(ps) {
				perm = append(perm, ps[i])
			}
		}
	}
	return perm
}

func luminanceBlob() ([]byte, error) {
	d, err := vqsim.Luminance2(library.Standard())
	if err != nil {
		return nil, err
	}
	return d.MarshalJSON()
}

func runFleet(cfg config, rep *report) error {
	blob, err := luminanceBlob()
	if err != nil {
		return err
	}
	var setups []float64
	// boot starts a fleet on fresh data directories and installs every
	// page: one timed set-up.
	boot := func() (*fleet, error) {
		dir := filepath.Join(cfg.work, fmt.Sprintf("fleet%d", len(setups)))
		start := time.Now()
		f, err := bootFleet(cfg.bin, dir, blob)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		return f, nil
	}
	drop := func(f *fleet) {
		for _, p := range f.procs {
			p.kill()
		}
		os.RemoveAll(f.dir)
	}
	// Half the set-ups come before the measured loop (the last one
	// serves it) and the rest after it.
	var f *fleet
	for len(setups) < fleetBoots/2 {
		if f != nil {
			drop(f)
		}
		if f, err = boot(); err != nil {
			return err
		}
	}
	defer func() { f.close() }()
	perm := pagePerm(cfg.seed)
	var wt, t tally
	fleetLoop(f, cfg.seed+1, perm, fleetWarm, &wt, nil, nil)
	if wt.failed.Load() > 0 {
		return fmt.Errorf("warm-up failed: %v", wt.failures())
	}
	c := newClient()
	defer c.close()

	var lt tally
	inLoop := map[string][]float64{}
	var seq int
	before := scrapeAll(c, f.backend, "powerplay_pagecache_events_total")
	host := startSteal()
	ops := fleetLoop(f, cfg.seed, perm, secs(cfg.seconds), &lt, &seq, inLoop)
	host.stop()
	after := scrapeAll(c, f.backend, "powerplay_pagecache_events_total")
	rep.add(&lt)
	// The publish burst, after the loop: one connection, probing both
	// backends directly.
	vis := publishProbe(c, f.router, f.cookies[0], f.backend, seq, fleetBurst, cfg.seed, &t, nil)

	var rss float64
	for _, p := range f.procs {
		rss += hwmMB(p.pid())
	}
	f.close()
	for len(setups) < fleetBoots {
		nf, err := boot()
		if err != nil {
			return err
		}
		drop(nf)
	}
	kinds := map[string]int{}
	samples := make([]sample, len(ops))
	for i, op := range ops {
		kinds[fmt.Sprintf("%s_%d", op.kind, op.code)]++
		samples[i] = sample{end: op.end, ms: op.ms}
	}
	reportSetup(rep, setups)
	if err := reportLoop(rep, samples, host); err != nil {
		return err
	}
	rep.set("rss_mb", "MB", rss)
	rep.Info["publishes"] = publishInfo(vis)
	rep.add(&t)
	hits := after["event=\"page_hit\""] - before["event=\"page_hit\""]
	misses := after["event=\"page_miss\""] - before["event=\"page_miss\""]
	pub := map[string]any{"burst": fleetBurst, "in_loop": seq}
	for k, v := range inLoop {
		pub["in_loop_"+k+"_visible"] = len(v)
	}
	rep.Info["params"] = map[string]any{
		"backends": fleetBackends, "clients": fleetClients, "users": fleetUsers,
		"pages": fleetUsers * fleetDesigns, "design": "Luminance_2", "zipf_s": fleetZipfS,
		"conditional_share": fleetCondShare, "play_share": fleetPlayShare,
		"publish_gap_s": fleetPublishGap.Seconds(), "boots": fleetBoots, "warmup_s": fleetWarm.Seconds(),
		"durability": "interval",
	}
	rep.Info["ops_by_kind"] = kinds
	rep.Info["pagecache_hit_ratio"] = hits / (hits + misses)
	rep.Info["in_loop_publishes"] = pub
	rep.Info["failures"] = merge(lt.failures(), t.failures())
	rep.Info["known_defect"] = map[string]any{
		"what":                        "shard.Router replicates only POST /models/new; a POST /api/v1/models publish reaches one backend",
		"json_publishes_unreplicated": lt.unreplicated.Load() + t.unreplicated.Load(),
	}
	return nil
}

// scrapeAll sums one counter family's samples, by label set, over the
// /metrics pages of several processes.
func scrapeAll(c *client, bases []string, family string) map[string]float64 {
	out := map[string]float64{}
	for _, b := range bases {
		resp, err := c.do(http.MethodGet, b+"/metrics", "", "", nil)
		if err != nil || resp.status != http.StatusOK {
			continue
		}
		for k, v := range parseCounters(resp.body, family) {
			out[k] += v
		}
	}
	return out
}

// parseCounters reads one family's samples from Prometheus text,
// keyed by the label set without braces ("" when unlabeled).
func parseCounters(text []byte, family string) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, family) {
			continue
		}
		rest := line[len(family):]
		labels := ""
		if strings.HasPrefix(rest, "{") {
			end := strings.Index(rest, "}")
			if end < 0 {
				continue
			}
			labels, rest = rest[1:end], rest[end+1:]
		} else if !strings.HasPrefix(rest, " ") {
			continue // a longer family name
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err == nil {
			out[labels] += v
		}
	}
	return out
}

func merge(ms ...map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for _, m := range ms {
		for k, v := range m {
			out[k] += v
		}
	}
	return out
}
