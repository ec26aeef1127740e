package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"aggchecker/internal/core"
	"aggchecker/internal/document"
	"aggchecker/internal/evaluate"
	"aggchecker/internal/keywords"
	"aggchecker/internal/model"
	"aggchecker/internal/sqlexec"
)

// timedEvaluator wraps the checker's cube evaluator and times each batch.
// model.Run discovers SetPool, BeginDocument and EndDocument by interface
// assertion, so the wrapper must forward all three: without SetPool the
// cube signatures (and with them cache reuse) silently change.
type timedEvaluator struct {
	ev *evaluate.CubeEvaluator

	busy             time.Duration
	batches, queries int
	pools, begins    int
	ends             int
}

var _ interface {
	model.Evaluator
	SetPool(map[string][]string)
	BeginDocument()
	EndDocument()
} = (*timedEvaluator)(nil)

func (t *timedEvaluator) EvaluateBatch(ctx context.Context, qs []sqlexec.Query) []float64 {
	start := time.Now()
	out := t.ev.EvaluateBatch(ctx, qs)
	t.busy += time.Since(start)
	t.batches++
	t.queries += len(qs)
	return out
}

func (t *timedEvaluator) SetPool(p map[string][]string) { t.pools++; t.ev.SetPool(p) }
func (t *timedEvaluator) BeginDocument()                { t.begins++; t.ev.BeginDocument() }
func (t *timedEvaluator) EndDocument()                  { t.ends++; t.ev.EndDocument() }

// tracedCheck is one check composed from the layers' public functions —
// ParseHTML → MatchAll → model.Run over the checker's cached engine under
// a pinned snapshot, as Checker.Check composes them — with each call
// timed. Its verdicts must equal Checker.Check's bit for bit.
type tracedCheck struct {
	res   *model.Result
	stats map[string]int64

	total, first, parse, match, run time.Duration
	ev                              *timedEvaluator
	allocBytes                      uint64
	gcCycles                        uint32
}

func runTraced(ctx context.Context, ck *core.Checker, html string) (*tracedCheck, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := &tracedCheck{}
	start := time.Now()
	doc := document.ParseHTML(html)
	t.parse = time.Since(start)

	cfg := ck.Config
	s := time.Now()
	scores := keywords.MatchAll(ck.Catalog, doc, cfg.Context, cfg.Model.TopKHits)
	t.match = time.Since(s)

	ce := evaluate.NewCubeEvaluator(ck.Engine)
	ce.Workers = cfg.Workers
	t.ev = &timedEvaluator{ev: ce}
	ctx = sqlexec.WithSnapshot(ctx, ck.Engine.DB.Snapshot())
	before := ck.Engine.Stats.Snapshot()
	obs := func(model.IterationUpdate) {
		if t.first == 0 {
			t.first = time.Since(start)
		}
	}
	s = time.Now()
	res, err := model.Run(ctx, ck.Catalog, doc, scores, t.ev, cfg.Model, obs)
	t.run = time.Since(s)
	t.total = time.Since(start)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	t.res = res
	t.stats = diffStats(before, ck.Engine.Stats.Snapshot())
	t.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	t.gcCycles = m1.NumGC - m0.NumGC
	if t.ev.pools != 1 || t.ev.begins != 1 || t.ev.ends != 1 {
		return nil, fmt.Errorf("timing wrapper saw SetPool×%d BeginDocument×%d EndDocument×%d, want 1 each",
			t.ev.pools, t.ev.begins, t.ev.ends)
	}
	return t, nil
}

// checkLayers accumulates traced checks into per-check layer means.
type checkLayers struct {
	n                                  int
	total, parse, match, self, batch   time.Duration
	iterations, evaluated, batches, qs int
	allocBytes                         uint64
	gcCycles                           uint32
}

func (c *checkLayers) add(t *tracedCheck) {
	c.n++
	c.total += t.total
	c.parse += t.parse
	c.match += t.match
	c.self += t.run - t.ev.busy
	c.batch += t.ev.busy
	c.iterations += t.res.Iterations
	c.evaluated += t.res.EvaluatedQueries
	c.batches += t.ev.batches
	c.qs += t.ev.queries
	c.allocBytes += t.allocBytes
	c.gcCycles += t.gcCycles
}

func (c *checkLayers) record(r *recorder) {
	if c.n == 0 {
		return
	}
	n := float64(c.n)
	per := func(d time.Duration) float64 { return ms(d) / n }
	r.layers["trace.check_ms"] = per(c.total)
	r.layers["document.parse_ms"] = per(c.parse)
	r.layers["keywords.match_ms"] = per(c.match)
	r.layers["model.self_ms"] = per(c.self)
	r.layers["evaluate.batch_ms"] = per(c.batch)
	r.layers["trace.unattributed_ms"] = per(c.total - c.parse - c.match - c.self - c.batch)
	r.layers["model.iterations"] = float64(c.iterations) / n
	r.layers["model.evaluated_queries"] = float64(c.evaluated) / n
	r.layers["evaluate.batches"] = float64(c.batches) / n
	r.layers["evaluate.queries"] = float64(c.qs) / n
	r.layers["runtime.alloc_mb_per_check"] = float64(c.allocBytes) / n / (1 << 20)
	r.layers["runtime.gc_cycles"] = float64(c.gcCycles) / n
}
