package main

// Traced runs: per-layer metrics.  Every workload is hosted in-process
// so the benchmark can wrap the program's handlers (web.Server.Handler,
// shard.Router.Handler) in span recorders; the layers below the
// handlers (sheet, store, explore, repo) are timed by calling their
// public functions directly with the same inputs the workload sent.
// Each workload first runs untraced in the same in-process mode, so the
// difference is the tracing overhead.  No program code is changed.

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one handler invocation, joined to the client's request by
// the X-Request-ID header the client sets and the router forwards.
type span struct {
	layer, id, path string
	start, end      time.Time
}

func (s span) us() float64 { return float64(s.end.Sub(s.start).Nanoseconds()) / 1e3 }

// spanLog keeps spans in memory while on; when off, the wrappers only
// pass requests through.  Spans are read once the run has ended.
type spanLog struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) wrap(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n := r.Header.Get(echoHeader); n != "" {
			l.echo(w, r, n)
			return
		}
		if !l.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		s := span{layer: layer, id: r.Header.Get("X-Request-ID"), path: r.URL.Path, start: time.Now()}
		h.ServeHTTP(w, r)
		s.end = time.Now()
		l.mu.Lock()
		l.spans = append(l.spans, s)
		l.mu.Unlock()
	})
}

// echoHeader marks an echo request: the wrapper reads the request body
// and answers with the number of bytes the header names, and does not
// call the program's handler.  An echo repeats a traced request's
// method, headers, body and answer size, so its client-observed time
// minus its own span measures the transport (socket, net/http, client)
// for that exchange independently of the program's spans.
const echoHeader = "X-Perfbench-Echo"

// echoBody is what echo answers are cut from.
var echoBody = make([]byte, 1<<20)

func (l *spanLog) echo(w http.ResponseWriter, r *http.Request, size string) {
	s := span{layer: "echo", id: r.Header.Get("X-Request-ID"), path: r.URL.Path, start: time.Now()}
	n, err := strconv.Atoi(size)
	if err != nil || n < 0 || n > len(echoBody) {
		http.Error(w, "bad echo size", http.StatusBadRequest)
		return
	}
	io.Copy(io.Discard, r.Body)
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write(echoBody[:n])
	s.end = time.Now()
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// echoLog keeps, while on, the client-observed time (µs) of the echo
// sent after each traced request, keyed by that request's ID.
type echoLog struct {
	on atomic.Bool
	mu sync.Mutex
	us map[string]float64
}

var echoes = &echoLog{us: map[string]float64{}}

// after sends the echo of c's last request when the log is on.
func (e *echoLog) after(c *client) {
	if !e.on.Load() || c.lastID == "" {
		return
	}
	if us, err := c.echo(); err == nil {
		e.mu.Lock()
		e.us[c.lastID] = us
		e.mu.Unlock()
	}
}

// netEcho is the transport time of request id measured by its echo: the
// echo's client-observed time minus the echo's span.
func netEcho(id string, echoSpans map[string][]span) (float64, bool) {
	echoes.mu.Lock()
	us, ok := echoes.us[id]
	echoes.mu.Unlock()
	es := echoSpans[id+"/echo"]
	if !ok || len(es) != 1 {
		return 0, false
	}
	return us - es[0].us(), true
}

// byID indexes one layer's spans by request ID.  A request that
// reaches a layer several times (a replicated publish) keeps them all.
func (l *spanLog) byID(layer string) map[string][]span {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := map[string][]span{}
	for _, s := range l.spans {
		if s.layer == layer {
			out[s.id] = append(out[s.id], s)
		}
	}
	return out
}

// covered is the length of the union of child intervals (µs): the
// part of a parent span its children account for.
func covered(children []span) float64 {
	if len(children) == 0 {
		return 0
	}
	c := append([]span(nil), children...)
	sort.Slice(c, func(i, j int) bool { return c[i].start.Before(c[j].start) })
	var total time.Duration
	cur := c[0]
	for _, s := range c[1:] {
		if s.start.After(cur.end) {
			total += cur.end.Sub(cur.start)
			cur = s
			continue
		}
		if s.end.After(cur.end) {
			cur.end = s.end
		}
	}
	total += cur.end.Sub(cur.start)
	return float64(total.Nanoseconds()) / 1e3
}

// memDelta measures allocation and GC work over a traced loop.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.before)
	return m
}

func (m *memDelta) report(rep *report, workload string, ops int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	n := math.Max(float64(ops), 1)
	rep.set("runtime.alloc_bytes_per_op."+workload, "B", float64(after.TotalAlloc-m.before.TotalAlloc)/n)
	rep.set("runtime.gc_cycles_per_kop."+workload, "1/kop", float64(after.NumGC-m.before.NumGC)*1000/n)
}

// accountingLimit is the share of the mean client-observed latency
// the layers along the blocking path may leave unexplained, either
// way, before the traced run fails.
const accountingLimit = 0.15

// account compares the sum of the blocking-path layers' mean self
// times with the mean client-observed latency over the same operations
// and reports the remainder as its own number.  Means, not medians, so
// that the layers of an operation add up to it.  The layers must be
// measured independently of the client time (the transport by echo,
// the handlers by their spans, the layers below them directly); a
// remainder beyond accountingLimit fails the run.
func account(rep *report, workload string, clientUs float64, layers map[string]float64) error {
	var sum float64
	shares := map[string]float64{}
	for name, v := range layers {
		sum += v
		shares[name] = v / clientUs
	}
	rest := clientUs - sum
	share := rest / clientUs
	rep.set("trace.unattributed_us."+workload, "us", rest)
	rep.set("trace.unattributed_share."+workload, "ratio", share)
	rep.Info[workload+"_accounting"] = map[string]any{
		"client_mean_us": clientUs, "layer_mean_sum_us": sum, "layer_shares": shares,
		"limit": accountingLimit,
	}
	if !(math.Abs(share) <= accountingLimit) {
		return fmt.Errorf("layers leave %.1f%% of the client-observed time unattributed (limit %.0f%%): %v",
			100*share, 100*accountingLimit, shares)
	}
	return nil
}

// overhead reports the traced-vs-untraced difference of the median
// client-observed latency in the same in-process mode.
func overhead(rep *report, workload string, untracedMs, tracedMs []float64) {
	u, t := median(untracedMs), median(tracedMs)
	rep.set("trace.overhead_share."+workload, "ratio", (t-u)/u)
}

// msOf extracts each op's latency.
func msOf[T any](ops []T, ms func(T) float64) []float64 {
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = ms(op)
	}
	return out
}

// runTraced runs the traced pass of every workload, so each traced run
// reports every per-layer metric; -workload only orders the passes.
func runTraced(cfg config, rep *report) error {
	order := []string{"edit", "explore", "fleet"}
	for i, w := range order {
		if w == cfg.workload {
			order[0], order[i] = order[i], order[0]
		}
	}
	each := secs(cfg.seconds / float64(len(order)))
	passes := map[string]func(config, *report, time.Duration) error{
		"edit": traceEdit, "explore": traceExplore, "fleet": traceFleet,
	}
	for _, w := range order {
		if err := passes[w](cfg, rep, each); err != nil {
			return err
		}
	}
	return nil
}
