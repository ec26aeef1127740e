package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"aggchecker/internal/core"
	"aggchecker/internal/corpus"
	"aggchecker/internal/document"
	"aggchecker/internal/model"
)

// paperWorkload checks the 53-article reproduction corpus in cached mode
// with a fresh Checker per article: each article is streamed (the
// interactive path), and a seeded sample is then re-checked with Check on
// the same checker. The model layer dominates it; a scan-kernel change
// should not move it. Set-up loads the corpus and opens every article's
// checker once; the loop opens a fresh one before each article (outside
// the check's timing) and drops it after, so one article's cube cache is
// live at a time.
type paperWorkload struct {
	cases   []*corpus.TestCase
	order   []int        // seeded visiting order of cases
	recheck map[int]bool // seeded sample re-checked with Check
	cfg     core.Config
	fp      string // verdict fingerprint of the first pass
}

// paperRechecks is how many articles per pass are re-checked with Check
// and compared with their first check. A re-check costs as much as the
// check itself, so re-checking all 53 would double a pass (about 25s on
// two cores).
const paperRechecks = 8

func (w *paperWorkload) setup(o options) error {
	c, err := corpus.Load()
	if err != nil {
		return err
	}
	w.cases = c.Cases
	rng := rand.New(rand.NewSource(o.seed))
	w.order = rng.Perm(len(w.cases))
	w.recheck = make(map[int]bool, paperRechecks)
	for _, i := range rng.Perm(len(w.cases))[:paperRechecks] {
		w.recheck[i] = true
	}
	w.cfg = core.DefaultConfig()
	for _, tc := range w.cases {
		core.NewChecker(tc.DB, w.cfg)
	}
	return nil
}

func (w *paperWorkload) meta() map[string]any {
	claims := 0
	for _, tc := range w.cases {
		claims += len(tc.Doc.Claims)
	}
	return map[string]any{"articles": len(w.cases), "claims": claims, "mode": w.cfg.Mode.String(), "fingerprint": w.fp}
}

func (w *paperWorkload) close() {}

func (w *paperWorkload) run(o options, r *recorder) error {
	ctx := context.Background()
	var layers checkLayers
	var catalog time.Duration
	stats := map[string]int64{}
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		results := make([]*model.Result, len(w.cases))
		var done round
		for _, i := range w.order {
			tc := w.cases[i]
			open := time.Now()
			ck := core.NewChecker(tc.DB, w.cfg)
			catalog += time.Since(open)
			var res *model.Result
			start, cpu := time.Now(), cpuTime()
			if r.traced {
				t, err := runTraced(ctx, ck, tc.HTML)
				r.attempted++
				if err != nil {
					r.failed++
					r.fail("%s: traced check: %v", tc.Name, err)
					continue
				}
				layers.add(t)
				addStats(stats, t.stats)
				r.firstMs = append(r.firstMs, ms(t.first))
				r.checkMs = append(r.checkMs, ms(t.total))
				res = t.res
			} else {
				events, err := ck.Stream(ctx, document.ParseHTML(tc.HTML))
				rep, first, err := drainStream(start, events, err)
				r.attempted++
				if err != nil {
					r.failed++
					r.fail("%s: stream: %v", tc.Name, err)
					continue
				}
				r.firstMs = append(r.firstMs, ms(first))
				r.checkMs = append(r.checkMs, ms(time.Since(start)))
				res = rep.Result
			}
			done.wall += time.Since(start)
			done.cpu += cpuTime() - cpu
			done.docs++
			results[i] = res
			if w.recheck[i] {
				rep, err := ck.Check(ctx, document.ParseHTML(tc.HTML))
				r.attempted++
				if err != nil {
					r.failed++
					r.fail("%s: re-check: %v", tc.Name, err)
				} else if d := sameVerdicts(res, rep.Result); d != "" {
					r.fail("%s: first check and Check differ: %s", tc.Name, d)
				}
			}
			if pass == 0 {
				r.score(res, tc.Truth)
			}
		}
		r.rounds = append(r.rounds, done)
		w.checkFingerprint(r, results)
	}
	if r.traced {
		layers.record(r)
		r.layers["fragments.catalog_ms"] = ms(catalog) / float64(layers.n)
		engineLayers(r, stats, float64(layers.n))
	}
	return nil
}

// checkFingerprint hashes one pass in corpus order and requires every pass
// of the run to match the first.
func (w *paperWorkload) checkFingerprint(r *recorder, results []*model.Result) {
	fp := newFingerprint()
	for i, res := range results {
		if res == nil {
			return // a failed check is already recorded
		}
		fp.add(w.cases[i].Name, res)
	}
	r.pin(&w.fp, fp.sum())
}

// drainStream consumes a Stream to completion and returns its report and
// the latency from start to the first EventIteration (tentative verdicts
// on screen).
func drainStream(start time.Time, events <-chan core.Event, err error) (*core.Report, time.Duration, error) {
	if err != nil {
		return nil, 0, err
	}
	var first time.Duration
	var rep *core.Report
	for ev := range events {
		switch e := ev.(type) {
		case core.EventIteration:
			if first == 0 {
				first = time.Since(start)
			}
		case core.EventDone:
			rep, err = e.Report, e.Err
		}
	}
	if err == nil && (rep == nil || first == 0) {
		err = fmt.Errorf("stream ended without a report or an iteration event")
	}
	return rep, first, err
}
