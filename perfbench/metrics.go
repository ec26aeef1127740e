package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"aggchecker/internal/core"
	"aggchecker/internal/corpus"
	"aggchecker/internal/metrics"
	"aggchecker/internal/model"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// perLayerMetrics are printed by every traced run (0 where the workload
// does not reach the layer), with their units. The trace_overhead.* and
// cpu.* entries are added by runMain.
var perLayerMetrics = map[string]string{
	"document.parse_ms":                "ms",
	"keywords.match_ms":                "ms",
	"fragments.catalog_ms":             "ms",
	"model.self_ms":                    "ms",
	"model.iterations":                 "count",
	"model.evaluated_queries":          "count",
	"evaluate.batch_ms":                "ms",
	"evaluate.batches":                 "count",
	"evaluate.queries":                 "count",
	"trace.check_ms":                   "ms",
	"trace.unattributed_ms":            "ms",
	"runtime.alloc_mb_per_check":       "MB",
	"runtime.gc_cycles":                "count",
	"sqlexec.rows_scanned":             "count",
	"sqlexec.rows_per_query":           "count",
	"sqlexec.cube_passes":              "count",
	"sqlexec.planned_cubes":            "count",
	"sqlexec.cache_hit_rate":           "ratio",
	"sqlexec.cache_ns_saved":           "ns",
	"sqlexec.cache_evictions":          "count",
	"sqlexec.direct_queries":           "count",
	"sqlexec.scalar_passes":            "count",
	"sqlexec.blocks_pruned_rate":       "ratio",
	"sqlexec.queue_waits":              "count",
	"sqlexec.lock_waits":               "count",
	"sqlexec.window_flushes":           "count",
	"sqlexec.shared_passes":            "count",
	"sqlexec.delta_scans":              "count",
	"sqlexec.blocks_delta":             "count",
	"sqlexec.full_rebuilds":            "count",
	"sqlexec.epoch_rebuilds":           "count",
	"db.append_ms":                     "ms",
	"core.refresh_ms":                  "ms",
	"core.commit_ms_p50":               "ms",
	"core.commit_ms_p90":               "ms",
	"colstore.bytes_per_row_committed": "B",
	"colstore.publishes":               "count",
}

// recorder collects one phase's samples and gate outcomes.
type recorder struct {
	traced bool

	attempted, failed int
	correct           bool
	failures          []string

	checkMs, firstMs []float64
	// rounds holds, per unit of work (a paper pass, an audit, a refresh
	// round), the documents done and the wall and process CPU time of the
	// timed ops.
	rounds []round

	ranks []int
	conf  metrics.Confusion

	layers map[string]float64
}

type round struct {
	docs      int
	wall, cpu time.Duration
}

func newRecorder() *recorder {
	return &recorder{correct: true, layers: make(map[string]float64)}
}

// fail records a broken correctness gate; the run exits non-zero.
func (r *recorder) fail(format string, args ...any) {
	r.correct = false
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// score rates a document's verdicts against the generator's ground truth.
func (r *recorder) score(res *model.Result, truth []corpus.ClaimTruth) {
	for i, cr := range res.Claims {
		r.ranks = append(r.ranks, core.RankOf(cr, truth[i].Query))
		r.conf.Add(cr.Erroneous, !truth[i].Correct)
	}
}

// endToEnd returns every end-to-end metric of BENCHMARK.json; README.md
// gives each one's meaning on each workload.
func (r *recorder) endToEnd(setups []float64) map[string]metric {
	return map[string]metric{
		"setup_s":             {quantile(setups, 0.5), "s"},
		"peak_rss_mb":         {peakRSSMB(), "MB"},
		"first_update_ms_p50": {quantile(r.firstMs, 0.5), "ms"},
		"check_ms_p50":        {quantile(r.checkMs, 0.5), "ms"},
		"check_ms_p90":        {quantile(r.checkMs, 0.9), "ms"},
		"docs_per_s":          {r.roundMedian(func(x round) float64 { return float64(x.docs) / x.wall.Seconds() }), "1/s"},
		"cpu_ms_per_doc":      {r.roundMedian(func(x round) float64 { return ms(x.cpu) / float64(x.docs) }), "ms"},
		"top1_pct":            {metrics.TopKCoverage(r.ranks, 1), "%"},
		"error_f1":            {r.conf.F1(), "ratio"},
	}
}

func (r *recorder) roundMedian(f func(round) float64) float64 {
	var xs []float64
	for _, x := range r.rounds {
		if x.docs > 0 {
			xs = append(xs, f(x))
		}
	}
	return quantile(xs, 0.5)
}

// perLayer returns every declared per-layer metric, 0 where unset.
func (r *recorder) perLayer() map[string]metric {
	out := make(map[string]metric, len(perLayerMetrics))
	for name, unit := range perLayerMetrics {
		out[name] = metric{r.layers[name], unit}
	}
	return out
}

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// diffStats subtracts engine counter snapshots.
func diffStats(before, after map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

func addStats(sum, d map[string]int64) {
	for k, v := range d {
		sum[k] += v
	}
}

// engineLayers turns a summed counter diff into the sqlexec.* metrics,
// normalised per unit of work (a document, an audit or a round).
func engineLayers(r *recorder, s map[string]int64, units float64) {
	if units <= 0 {
		return
	}
	per := func(k string) float64 { return float64(s[k]) / units }
	r.layers["sqlexec.rows_scanned"] = per("rows_scanned")
	if q := s["batch_queries"]; q > 0 {
		r.layers["sqlexec.rows_per_query"] = float64(s["rows_scanned"]) / float64(q)
	}
	r.layers["sqlexec.cube_passes"] = per("cube_passes")
	r.layers["sqlexec.planned_cubes"] = per("planned_cubes")
	if h, m := s["cache_hits"], s["cache_misses"]; h+m > 0 {
		r.layers["sqlexec.cache_hit_rate"] = float64(h) / float64(h+m)
	}
	r.layers["sqlexec.cache_ns_saved"] = per("cube_cache_ns_saved")
	r.layers["sqlexec.cache_evictions"] = per("cube_cache_evictions")
	r.layers["sqlexec.direct_queries"] = per("direct_queries")
	r.layers["sqlexec.scalar_passes"] = per("scalar_passes")
	if b, p := s["blocks_scanned"], s["blocks_pruned"]; b+p > 0 {
		r.layers["sqlexec.blocks_pruned_rate"] = float64(p) / float64(b+p)
	}
	r.layers["sqlexec.queue_waits"] = per("queue_waits")
	r.layers["sqlexec.lock_waits"] = per("lock_waits")
	r.layers["sqlexec.window_flushes"] = per("window_flushes")
	r.layers["sqlexec.shared_passes"] = per("shared_passes")
	r.layers["sqlexec.delta_scans"] = per("delta_scans")
	r.layers["sqlexec.blocks_delta"] = per("blocks_delta")
	r.layers["sqlexec.full_rebuilds"] = per("full_rebuilds")
	r.layers["sqlexec.epoch_rebuilds"] = per("epoch_rebuilds")
}

// cpuTime returns the process's user plus system CPU time. On a virtual
// machine it excludes time stolen by the host, which wall time includes.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's high-water resident set size.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// fingerprint hashes verdicts: per claim the erroneous flag, the PCorrect
// bits and the ranked query keys. Equal fingerprints mean bit-identical
// verdicts.
type fingerprint struct{ h hash.Hash }

func newFingerprint() *fingerprint { return &fingerprint{sha256.New()} }

func (f *fingerprint) add(name string, res *model.Result) {
	fmt.Fprintf(f.h, "doc %s %d\n", name, len(res.Claims))
	for _, c := range res.Claims {
		fmt.Fprintf(f.h, "%t %x", c.Erroneous, math.Float64bits(c.PCorrect))
		for _, rq := range c.Ranked {
			fmt.Fprintf(f.h, " %s=%x", rq.Query.Key(), math.Float64bits(rq.Prob))
		}
		fmt.Fprintln(f.h)
	}
}

func (f *fingerprint) sum() string { return hex.EncodeToString(f.h.Sum(nil))[:16] }

// pin records the run's first fingerprint in *first and fails the gate
// when a later pass or audit of the run differs from it.
func (r *recorder) pin(first *string, sum string) {
	if *first == "" {
		*first = sum
	} else if sum != *first {
		r.fail("verdict fingerprint %s differs from the run's first %s", sum, *first)
	}
}

// sameVerdicts reports the first difference between two results, or "".
func sameVerdicts(a, b *model.Result) string {
	if len(a.Claims) != len(b.Claims) {
		return fmt.Sprintf("%d vs %d claims", len(a.Claims), len(b.Claims))
	}
	for i := range a.Claims {
		x, y := a.Claims[i], b.Claims[i]
		if x.Erroneous != y.Erroneous || math.Float64bits(x.PCorrect) != math.Float64bits(y.PCorrect) {
			return fmt.Sprintf("claim %d: erroneous %t/%t pcorrect %v/%v", i, x.Erroneous, y.Erroneous, x.PCorrect, y.PCorrect)
		}
		if len(x.Ranked) != len(y.Ranked) {
			return fmt.Sprintf("claim %d: %d vs %d ranked queries", i, len(x.Ranked), len(y.Ranked))
		}
		for j := range x.Ranked {
			p, q := x.Ranked[j], y.Ranked[j]
			if p.Query.Key() != q.Query.Key() || math.Float64bits(p.Prob) != math.Float64bits(q.Prob) ||
				math.Float64bits(p.Result) != math.Float64bits(q.Result) || p.Matches != q.Matches {
				return fmt.Sprintf("claim %d rank %d: %s (p=%v r=%v) vs %s (p=%v r=%v)", i, j,
					p.Query.Key(), p.Prob, p.Result, q.Query.Key(), q.Prob, q.Result)
			}
		}
	}
	return ""
}
