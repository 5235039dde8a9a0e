package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// tally counts operations.  failed counts every operation that did not
// complete with a checked, expected answer; wrong counts the subset
// whose answer was checked and differed from the oracle, which is what
// makes a run incorrect (a publish that never became visible fails
// without being wrong).  unreplicated counts the publishes that showed
// the router's known replication defect (see checkPublish).
type tally struct {
	attempted, failed, wrong atomic.Int64
	unreplicated             atomic.Int64
	mu                       sync.Mutex
	reasons                  map[string]int64
}

func (t *tally) fail(reason string, wrong bool) {
	t.failed.Add(1)
	if wrong {
		t.wrong.Add(1)
	}
	t.mu.Lock()
	if t.reasons == nil {
		t.reasons = map[string]int64{}
	}
	t.reasons[reason]++
	t.mu.Unlock()
}

func (t *tally) failures() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int64, len(t.reasons))
	for k, v := range t.reasons {
		out[k] = v
	}
	return out
}

// percentile returns the q-quantile (0..1) of sorted values by linear
// interpolation between closest ranks.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

func sum(vals []float64) float64 {
	var s float64
	for _, v := range vals {
		s += v
	}
	return s
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	return sum(vals) / float64(len(vals))
}

// sample is one completed operation: when it completed and how long
// it took.
type sample struct {
	end time.Time
	ms  float64
}

// reportLoop reports a closed loop's end-to-end figures: ops_per_s is
// the completed operations over the time they were measured in, and
// p50_ms and p90_ms the percentiles of their latencies.  The figures
// are taken over the loop's quiet windows (see stealMeter), or over the
// whole loop when too little of it was quiet; the whole-loop figures
// are in the info line either way.  It fails when the run is too short
// to leave minBeyondP90 samples above its p90.
func reportLoop(rep *report, samples []sample, host *stealMeter) error {
	quiet, elapsed := host.quiet()
	all := make([]float64, 0, len(samples))
	var kept []float64
	var keptTime time.Duration
	for _, w := range quiet {
		keptTime += w.to.Sub(w.from)
	}
	for _, s := range samples {
		all = append(all, s.ms)
		for _, w := range quiet {
			if s.end.After(w.from) && !s.end.After(w.to) {
				kept = append(kept, s.ms)
				break
			}
		}
	}
	sort.Float64s(all)
	rep.Info["all_loop"] = map[string]float64{
		"ops_per_s": float64(len(all)) / elapsed.Seconds(),
		"p50_ms":    percentile(all, 0.5),
		"p90_ms":    percentile(all, 0.9),
	}
	rep.Info["quiet_share"] = keptTime.Seconds() / elapsed.Seconds()
	rep.Info["window_steal_share"] = host.shares()
	rep.Info["steal_share"] = orNil(host.total())
	if keptTime < time.Duration(minQuiet*float64(elapsed)) {
		kept, keptTime = all, elapsed
		rep.Info["too_little_quiet"] = true
	}
	sort.Float64s(kept)
	p90 := percentile(kept, 0.9)
	beyond := len(kept) - sort.Search(len(kept), func(i int) bool { return kept[i] > p90 })
	rep.Info["latency_samples"] = len(kept)
	rep.Info["p90_samples_beyond"] = beyond
	if beyond < minBeyondP90 {
		return fmt.Errorf("%d samples beyond p90, fewer than %d: measure longer", beyond, minBeyondP90)
	}
	rep.set("ops_per_s", "ops/s", float64(len(kept))/keptTime.Seconds())
	rep.set("p50_ms", "ms", percentile(kept, 0.5))
	rep.set("p90_ms", "ms", p90)
	q := map[string]float64{}
	for _, p := range []int{10, 25, 50, 75, 90, 95, 99} {
		q[fmt.Sprintf("p%02d", p)] = percentile(kept, float64(p)/100)
	}
	rep.Info["latency_quantiles_ms"] = q
	return nil
}

// minBeyondP90 is the fewest samples a run may have above its p90.
const minBeyondP90 = 10

// reportSetup sets setup_s to the median of a run's set-up times and
// lists them all in the info line.
func reportSetup(rep *report, setups []float64) {
	rep.set("setup_s", "s", median(setups))
	rep.Info["setup_s_each"] = setups
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// startProcs is GOMAXPROCS as the process started: what the servers
// (and the in-process program) run with.
var startProcs = runtime.GOMAXPROCS(0)

// hostInfo describes where and on what a run was measured.
func hostInfo() map[string]any {
	return map[string]any{
		"nproc":                runtime.NumCPU(),
		"gomaxprocs":           startProcs,
		"generator_gomaxprocs": runtime.GOMAXPROCS(0),
		"go":                   runtime.Version(),
		"commit":               commit(),
		"source":               sourceDigest(),
	}
}

// commit is the git revision when the working directory is a
// repository, else "unknown"; sourceDigest identifies the measured
// code either way.  It reads .git directly, so nothing outside the
// working directory is consulted.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file of the program
// under test (the working directory tree, minus build output), so two
// results can be matched to the exact code they measured.
func sourceDigest() string {
	h := sha256.New()
	var files []string
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "go.mod")) {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// hwmMB reads a process's peak resident set (VmHWM) in MB.
func hwmMB(pid int) float64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// stealMeter reads the host's CPU accounting (/proc/stat) every
// stealWindow while a measured loop runs, cutting the loop into windows
// matched with the share of the host's CPU time the hypervisor gave to
// other tenants ("steal").  A window whose steal share exceeds
// stealLimit is not quiet: the reference host is a 2-vCPU VM shared
// with other tenants, and their bursts slow every layer of a run for
// seconds at a time.  Windows are chosen by the host's accounting,
// never by how fast the program was in them, so a slower program is
// measured in the same windows as a faster one.
type stealMeter struct {
	stopc chan struct{}
	done  chan struct{}
	marks []stealMark // at the start, every stealWindow, and at the end
}

type stealMark struct {
	at time.Time
	s  stealSample
	ok bool
}

type stealSample struct{ steal, total uint64 }

const (
	stealWindow = time.Second
	stealLimit  = 0.05
	minQuiet    = 0.25 // below this quiet share of the loop, every window counts
)

// window is one stretch of a measured loop with its steal share (NaN
// when /proc/stat cannot be read).
type window struct {
	from, to time.Time
	steal    float64
}

func startSteal() *stealMeter {
	m := &stealMeter{stopc: make(chan struct{}), done: make(chan struct{})}
	m.mark()
	go func() {
		defer close(m.done)
		tick := time.NewTicker(stealWindow)
		defer tick.Stop()
		for {
			select {
			case <-m.stopc:
				m.mark()
				return
			case <-tick.C:
				m.mark()
			}
		}
	}()
	return m
}

func (m *stealMeter) mark() {
	s, ok := readSteal()
	m.marks = append(m.marks, stealMark{at: time.Now(), s: s, ok: ok})
}

// stop ends the loop's metering and waits for the sampler to exit.
func (m *stealMeter) stop() {
	close(m.stopc)
	<-m.done
}

func (m *stealMeter) windows() []window {
	var out []window
	for i := 1; i < len(m.marks); i++ {
		a, b := m.marks[i-1], m.marks[i]
		out = append(out, window{from: a.at, to: b.at, steal: stealShare(a, b)})
	}
	return out
}

// quiet returns the loop's quiet windows and its whole length.  A
// window whose steal cannot be read counts as quiet.
func (m *stealMeter) quiet() ([]window, time.Duration) {
	var out []window
	for _, w := range m.windows() {
		if !(w.steal > stealLimit) {
			out = append(out, w)
		}
	}
	return out, m.marks[len(m.marks)-1].at.Sub(m.marks[0].at)
}

func (m *stealMeter) shares() []any {
	var out []any
	for _, w := range m.windows() {
		out = append(out, orNil(w.steal))
	}
	return out
}

// orNil keeps NaN, which JSON cannot carry, out of the info line.
func orNil(v float64) any {
	if math.IsNaN(v) {
		return nil
	}
	return v
}

// total is the steal share over the whole loop.
func (m *stealMeter) total() float64 {
	return stealShare(m.marks[0], m.marks[len(m.marks)-1])
}

func stealShare(a, b stealMark) float64 {
	if !a.ok || !b.ok || b.s.total <= a.s.total {
		return math.NaN()
	}
	return float64(b.s.steal-a.s.steal) / float64(b.s.total-a.s.total)
}

// readSteal reads the aggregate cpu line of /proc/stat.
func readSteal() (stealSample, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealSample{}, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return stealSample{}, false
	}
	var s stealSample
	for i, v := range f[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		s.total += n
		if i == 7 {
			s.steal = n
		}
	}
	return s, true
}
