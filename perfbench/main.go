// Command perfbench is PowerPlay's end-to-end benchmark.  It drives one
// workload for a fixed time from a single generator process, checks the
// output of every operation, and prints one JSON result line:
//
//	perfbench -workload edit|explore|fleet -seed N -seconds S -trace 0|1
//
// With -trace 0 the result carries the end-to-end metrics of the
// workload, measured against the real powerplay binary (edit, fleet) or
// the public facade (explore).  With -trace 1 it carries the per-layer
// metrics instead: every workload is re-run in-process with its handlers
// wrapped in span recorders, and the layers below the handlers are timed
// by calling their public functions directly.  See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates one run's outcome.  Info is printed on its own
// line before the result so every run describes itself (host, seed,
// workload parameters, sample counts) without widening the result.
type report struct {
	result
	Info map[string]any
}

func newReport() *report {
	return &report{result: result{Correct: true, Metrics: map[string]metric{}}, Info: map[string]any{}}
}

func (r *report) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

// add folds an op tally into the result.
func (r *report) add(t *tally) {
	r.Attempted += t.attempted.Load()
	r.Failed += t.failed.Load()
	if t.wrong.Load() > 0 {
		r.Correct = false
	}
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	bin      string // the powerplay binary (edit, fleet)
	work     string // scratch directory inside the checkout
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: edit, explore or fleet")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	flag.StringVar(&cfg.bin, "bin", "", "path to the powerplay binary")
	flag.StringVar(&cfg.work, "work", ".bench_build/perfbench/run", "scratch directory")
	flag.Parse()
	cfg.trace = trace == 1
	if trace != 0 && trace != 1 {
		fail("-trace must be 0 or 1")
	}
	run, ok := workloads[cfg.workload]
	if !ok {
		fail(fmt.Sprintf("unknown -workload %q", cfg.workload))
	}
	if cfg.seconds <= 0 {
		fail("-seconds must be positive")
	}
	if !cfg.trace && cfg.workload != "explore" {
		if _, err := os.Stat(cfg.bin); err != nil {
			fail("-bin: " + err.Error())
		}
	}
	work, err := filepath.Abs(filepath.Join(cfg.work, fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid())))
	if err != nil {
		fail(err.Error())
	}
	cfg.work = work
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fail(err.Error())
	}

	// A signal must not leave server processes behind.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		stopAll()
		os.RemoveAll(cfg.work)
		os.Exit(1)
	}()

	rep := newReport()
	if cfg.trace {
		err = runTraced(cfg, rep)
	} else {
		if cfg.workload != "explore" {
			// The generator only waits on sockets: one P keeps its idle
			// threads from spinning on the CPUs the servers need.
			runtime.GOMAXPROCS(1)
		}
		err = run(cfg, rep)
	}
	stopAll()
	os.RemoveAll(cfg.work)
	if err != nil {
		fail(cfg.workload + ": " + err.Error())
	}
	rep.Info["host"] = hostInfo()
	rep.Info["workload"] = cfg.workload
	rep.Info["seed"] = cfg.seed
	rep.Info["seconds"] = cfg.seconds
	rep.Info["trace"] = trace
	info, _ := json.Marshal(map[string]any{"info": rep.Info})
	fmt.Println(string(info))
	line, _ := json.Marshal(rep.result)
	fmt.Println(string(line))
}

// workloads maps each workload name to its end-to-end run.
var workloads = map[string]func(config, *report) error{
	"edit":    runEdit,
	"explore": runExplore,
	"fleet":   runFleet,
}

func fail(msg string) {
	stopAll()
	fmt.Fprintln(os.Stderr, "perfbench:", msg)
	os.Exit(1)
}
