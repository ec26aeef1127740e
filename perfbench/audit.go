package main

import (
	"context"
	"math/rand"
	"time"

	"aggchecker/internal/core"
	"aggchecker/internal/corpus"
	"aggchecker/internal/sqlexec"
)

// Audit workload size: generated sports articles over one shared table.
const (
	auditDocs         = 25
	auditClaimsPerDoc = 6
	auditErrorsPerDoc = 1
	auditRows         = 100_000
	// corpusSeed fixes the generated corpora of audit and refresh. Audit
	// corpora drawn from different seeds differ in cost by up to 2x (0.89
	// to 2.08 docs/s over seeds 1-5), which would drown any change under
	// test. --seed instead sets audit's document arrival order, which
	// decides what the planning window and the cube cache see first, and
	// refresh's appended rows.
	corpusSeed = 424242
	// minAudits makes every run hold at least this many audits;
	// docs_per_s is their median.
	minAudits = 4
	// auditWave is Checker.Audit's default concurrency: the documents of
	// one wave are checked together.
	auditWave = 8
	// auditIsolatedSample is how many audit reports per phase are compared
	// with cold isolated checks of the same documents.
	auditIsolatedSample = 2
)

// auditWorkload sends a generated corpus over one shared table through
// Checker.Audit at the default concurrency and planning window, with a
// fresh checker (cold cube cache) per call. Scans, the cube kernel, the
// cache and the window take a far larger share than on paper; an EM change
// moves it much less.
type auditWorkload struct {
	sc   *corpus.SharedCorpus
	cfg  core.Config
	ck   *core.Checker
	rng  *rand.Rand
	perm []int // seeded arrival order
	fp   string
}

func (w *auditWorkload) setup(o options) error {
	sc, err := corpus.GenerateSharedCorpusRows("sports", corpusSeed, auditDocs, auditClaimsPerDoc, auditErrorsPerDoc, auditRows)
	if err != nil {
		return err
	}
	w.sc = sc
	w.cfg = core.DefaultConfig()
	w.rng = rand.New(rand.NewSource(o.seed))
	w.perm = w.rng.Perm(len(sc.Docs))
	w.ck = core.NewChecker(sc.DB, w.cfg)
	return nil
}

func (w *auditWorkload) meta() map[string]any {
	return map[string]any{"docs": auditDocs, "claims_per_doc": auditClaimsPerDoc,
		"errors_per_doc": auditErrorsPerDoc, "rows": auditRows, "fingerprint": w.fp}
}

func (w *auditWorkload) close() {}

// fresh replaces the checker with a new one, timing the catalog build.
func (w *auditWorkload) fresh(r *recorder, catalog *[]float64) {
	start := time.Now()
	w.ck = core.NewChecker(w.sc.DB, w.cfg)
	*catalog = append(*catalog, ms(time.Since(start)))
	if r.traced {
		r.layers["fragments.catalog_ms"] = quantile(*catalog, 0.5)
	}
}

func (w *auditWorkload) run(o options, r *recorder) error {
	ctx := context.Background()
	stats := map[string]int64{}
	var catalog []float64
	var last *core.AuditReport
	var lastDocs []core.AuditDoc
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for audits := 0; audits < minAudits || time.Now().Before(deadline); audits++ {
		// Audit k rotates the seeded order by k waves, so the first waves of
		// consecutive audits are disjoint: which documents share the first
		// wave decides the early completions, and over the first three
		// audits 24 of the 25 documents are in one.
		order := make([]int, len(w.perm))
		docs := make([]core.AuditDoc, len(order))
		for i := range order {
			order[i] = w.perm[(i+audits*auditWave)%len(w.perm)]
			tc := w.sc.Docs[order[i]]
			docs[i] = core.AuditDoc{Name: tc.Name, Doc: tc.Doc}
		}
		// An audit's user sees each document's verdict when it completes, so
		// its check latency is the time from submitting the corpus to the
		// document's completion; the progress callback runs serially.
		var done []time.Duration
		start, cpu := time.Now(), cpuTime()
		rep, err := w.ck.Audit(ctx, docs, core.WithAuditProgress(func(int, core.DocReport) {
			done = append(done, time.Since(start))
		}))
		work := round{wall: time.Since(start), cpu: cpuTime() - cpu}
		r.attempted += len(docs)
		if err != nil {
			r.failed += len(docs)
			r.fail("audit: %v", err)
			return nil
		}
		r.failed += rep.Failed
		if rep.Failed != 0 {
			r.fail("audit: %d of %d documents failed", rep.Failed, len(docs))
		}
		work.docs = rep.Checked
		r.rounds = append(r.rounds, work)
		// A corpus's first update is its first wave of verdicts on screen:
		// the first auditWave completions of every audit. A single first
		// completion moved by 23% across seeds.
		for i, d := range done {
			if i < auditWave {
				r.firstMs = append(r.firstMs, ms(d))
			}
			r.checkMs = append(r.checkMs, ms(d))
		}
		addStats(stats, rep.Stats)
		// Reports in generation order, so the fingerprint and the scores do
		// not depend on the arrival order.
		byCase := make([]*core.Report, len(order))
		for i, dr := range rep.Docs {
			if dr.Err == nil {
				byCase[order[i]] = dr.Report
			}
		}
		fp := newFingerprint()
		for j, rp := range byCase {
			if rp == nil {
				continue
			}
			tc := w.sc.Docs[j]
			fp.add(tc.Name, rp.Result)
			if audits == 0 {
				r.score(rp.Result, tc.Truth)
			}
		}
		r.pin(&w.fp, fp.sum())
		last, lastDocs = rep, docs
		w.fresh(r, &catalog)
	}
	w.checkIsolated(ctx, r, last, lastDocs)
	if r.traced {
		docs := 0
		for _, x := range r.rounds {
			docs += x.docs
		}
		engineLayers(r, stats, float64(docs))
	}
	return nil
}

// checkIsolated re-checks a seeded sample of the audit's documents alone,
// each on a cold engine, and requires bit-identical verdicts.
func (w *auditWorkload) checkIsolated(ctx context.Context, r *recorder, rep *core.AuditReport, docs []core.AuditDoc) {
	for _, i := range w.rng.Perm(len(docs))[:auditIsolatedSample] {
		dr := rep.Docs[i]
		if dr.Err != nil {
			continue
		}
		w.ck.Engine = sqlexec.NewEngine(w.sc.DB)
		iso, err := w.ck.Check(ctx, docs[i].Doc)
		if err != nil {
			r.fail("isolated check %s: %v", dr.Name, err)
			continue
		}
		if d := sameVerdicts(iso.Result, dr.Report.Result); d != "" {
			r.fail("audit and isolated check of %s differ: %s", dr.Name, d)
		}
	}
	w.ck = core.NewChecker(w.sc.DB, w.cfg)
}
