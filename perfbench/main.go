// Command perfbench is aggchecker's end-to-end benchmark. It runs one of
// three closed-loop workloads (paper, audit, refresh), checks every verdict
// it produces against the program's own reference paths, and prints the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run)
// as the last line of standard output:
//
//	perfbench --workload paper --seed 1 --seconds 10 --trace 0
//
// Each workload is driven by one goroutine at the default GOMAXPROCS. The
// benchmark measures layers only from outside: it times its own calls into
// each layer's public functions and diffs the engine, cache and store
// counters around them; the program carries no tracing of its own. See
// README.md for the workload rationale and the layer → metric map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"aggchecker/internal/vec"
)

// setupSamples is how many times a run builds its workload's inputs and
// opens its checker or service: setup_s is their median. All but the last
// run in child processes (a fresh heap and fresh process-wide memos, such
// as corpus.Load's), the last is the run's own set-up.
const setupSamples = 5

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// setupOnly makes the process build the workload's inputs, print the
	// set-up time and exit; the parent's set-up probe runs it.
	setupOnly bool
	// dir is the scratch directory for durable stores, inside the checkout.
	dir string
}

// workload is one benchmark workload: setup builds inputs and opens the
// checker or service (timed as setup_s); run drives the closed loop.
type workload interface {
	setup(o options) error
	run(o options, r *recorder) error
	meta() map[string]any
	close()
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "paper":
		return &paperWorkload{}, nil
	case "audit":
		return &auditWorkload{}, nil
	case "refresh":
		return &refreshWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want paper, audit or refresh)", name)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: paper, audit or refresh")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per phase")
	flag.IntVar(&trace, "trace", 0, "1 prints per-layer metrics from a traced run")
	flag.BoolVar(&o.setupOnly, "setup-only", false, "build inputs, print the set-up seconds and exit")
	flag.StringVar(&o.dir, "dir", ".bench_build/run", "scratch directory for durable stores")
	flag.Parse()
	o.trace = trace == 1
	if err := runMain(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func runMain(o options) error {
	w, err := newWorkload(o.workload)
	if err != nil {
		return err
	}
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if o.setupOnly {
		start := time.Now()
		if err := w.setup(o); err != nil {
			return err
		}
		d := time.Since(start)
		w.close()
		fmt.Printf("setup_s %.9f\n", d.Seconds())
		return nil
	}

	setups, err := probeSetup(o)
	if err != nil {
		return err
	}
	start := time.Now()
	if err := w.setup(o); err != nil {
		return err
	}
	setups = append(setups, time.Since(start).Seconds())
	defer w.close()

	r := newRecorder()
	if o.trace {
		// The untraced phase first, so the overhead is traced minus
		// untraced on the same inputs in the same process.
		if err := w.run(o, r); err != nil {
			return err
		}
		untraced := r.endToEnd(setups)
		tr := newRecorder()
		tr.traced = true
		prof, err := startProfile(o.dir)
		if err != nil {
			return err
		}
		runErr := w.run(o, tr)
		shares, perr := prof.stop()
		if runErr != nil {
			return runErr
		}
		if perr != nil {
			return perr
		}
		traced := tr.endToEnd(setups)
		layers := tr.perLayer()
		for k, v := range shares {
			layers[k] = metric{v, "ratio"}
		}
		for _, m := range timedMetrics {
			layers["trace_overhead."+m] = metric{traced[m].Value - untraced[m].Value, traced[m].Unit}
		}
		tr.attempted += r.attempted
		tr.failed += r.failed
		tr.correct = tr.correct && r.correct
		tr.failures = append(r.failures, tr.failures...)
		if err := finish(w, tr); err != nil {
			return err
		}
		return emit(o, w, tr, layers)
	}
	if err := w.run(o, r); err != nil {
		return err
	}
	if err := finish(w, r); err != nil {
		return err
	}
	return emit(o, w, r, r.endToEnd(setups))
}

// timedMetrics are the end-to-end metrics tracing can move; the traced
// run reports its overhead on each.
var timedMetrics = []string{"first_update_ms_p50", "check_ms_p50", "check_ms_p90", "docs_per_s", "cpu_ms_per_doc"}

// finish runs a workload's after-run gates (refresh's durability check).
func finish(w workload, r *recorder) error {
	if f, ok := w.(interface{ finish(*recorder) error }); ok {
		return f.finish(r)
	}
	return nil
}

// probeSetup times setupSamples-1 set-ups in child processes.
func probeSetup(o options) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < setupSamples-1; i++ {
		cmd := exec.Command(self, "--setup-only", "--workload", o.workload,
			"--seed", strconv.FormatInt(o.seed, 10), "--dir", o.dir+"-probe")
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		f := strings.Fields(string(b))
		if len(f) != 2 || f[0] != "setup_s" {
			return nil, fmt.Errorf("set-up probe printed %q", b)
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		out = append(out, v)
	}
	return out, nil
}

// runMeta is recorded with every result; compare flags any difference.
func runMeta(o options, w workload) map[string]any {
	m := map[string]any{
		"go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"vec_impl":   vec.Impl(),
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
	}
	for k, v := range w.meta() {
		m["size."+k] = v
	}
	return m
}

// emit prints the human-readable metric table, the metadata line, and the
// result object as the last line; it fails the run on a broken gate.
func emit(o options, w workload, r *recorder, metrics map[string]metric) error {
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-40s %14.4f %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	for _, f := range r.failures {
		fmt.Println("GATE FAILED:", f)
	}
	for _, k := range names {
		if v := metrics[k].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s has no value (%v)", k, v)
		}
	}
	meta, err := json.Marshal(map[string]any{"meta": runMeta(o, w)})
	if err != nil {
		return err
	}
	fmt.Println(string(meta))
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, metrics}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !r.correct {
		return errors.New("correctness gate failed")
	}
	return nil
}
