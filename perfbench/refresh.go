package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"aggchecker/internal/colstore"
	"aggchecker/internal/core"
	"aggchecker/internal/corpus"
	"aggchecker/internal/db"
	"aggchecker/internal/document"
	"aggchecker/internal/model"
)

// Refresh workload size.
const (
	refreshDocs         = 6
	refreshClaimsPerDoc = 6
	refreshErrorsPerDoc = 1
	refreshRows         = 120_000
	refreshAppend       = 2000
	// refreshScoredRounds fixes which re-checks the fingerprint covers, so
	// it does not depend on how many rounds a run completes.
	refreshScoredRounds = 3
	refreshDatabase     = "shared"
)

// refreshWorkload puts writes beside reads: a Service hosts one shared
// table through a MemSource with a data directory, so every commit is
// durable. Each round appends rows sampled from the table's own rows,
// refreshes, and re-checks every document. Only this workload reaches the
// commit path: snapshot publish, durable column writes, Catalog.Extend and
// delta cube maintenance.
type refreshWorkload struct {
	sc      *corpus.SharedCorpus
	table   *db.Table
	base    int // rows present before the first append
	cfg     core.Config
	svc     *core.Service
	dataDir string
	rng     *rand.Rand
	warm    bool

	round   int
	version uint64 // last acknowledged commit
	rows    int
	fp      *fingerprint
	fpSum   string
	last    []*model.Result // re-checks of the latest round
}

func (w *refreshWorkload) setup(o options) error {
	sc, err := corpus.GenerateSharedCorpusRows("sports", corpusSeed, refreshDocs, refreshClaimsPerDoc, refreshErrorsPerDoc, refreshRows)
	if err != nil {
		return err
	}
	w.sc = sc
	w.table = sc.DB.Tables()[0]
	w.base = w.table.NumRows()
	w.rng = rand.New(rand.NewSource(o.seed))
	w.dataDir, err = filepath.Abs(o.dir)
	if err != nil {
		return err
	}
	if err := os.RemoveAll(w.dataDir); err != nil {
		return err
	}
	w.cfg = core.DefaultConfig()
	w.cfg.DataDir = w.dataDir
	w.svc = core.NewService(core.WithDefaultConfig(w.cfg))
	if err := w.svc.RegisterSource(refreshDatabase, db.NewMemSource(sc.DB)); err != nil {
		return err
	}
	ck, err := w.svc.Checker(context.Background(), refreshDatabase)
	if err != nil {
		return err
	}
	snap := ck.DB.Snapshot()
	w.version, w.rows = snap.Version(), snap.TotalRows()
	w.fp = newFingerprint()
	return nil
}

func (w *refreshWorkload) meta() map[string]any {
	return map[string]any{"docs": refreshDocs, "claims_per_doc": refreshClaimsPerDoc, "rows": refreshRows,
		"append_rows": refreshAppend, "rounds": w.round, "fingerprint": w.fpSum}
}

func (w *refreshWorkload) close() {
	if w.dataDir != "" {
		os.RemoveAll(w.dataDir)
	}
}

// sampleRows draws appended rows from the table's original rows, so
// appends add no new literals and re-checks take the delta path.
func (w *refreshWorkload) sampleRows() [][]any {
	rows := make([][]any, refreshAppend)
	for i := range rows {
		src := w.rng.Intn(w.base)
		row := make([]any, len(w.table.Columns))
		for j, c := range w.table.Columns {
			if c.Kind == db.KindString {
				row[j] = c.StringAt(src)
			} else {
				row[j] = c.Float(src)
			}
		}
		rows[i] = row
	}
	return rows
}

func (w *refreshWorkload) run(o options, r *recorder) error {
	ctx := context.Background()
	if !w.warm {
		// The first check of each document builds its cubes from scratch;
		// rounds measure re-checks, so every document is checked once first.
		// These checks see the generated data unchanged, so they alone are
		// scored against the generator's ground truth.
		for _, tc := range w.sc.Docs {
			rep, err := w.svc.Check(ctx, refreshDatabase, document.ParseHTML(tc.HTML))
			if err != nil {
				return fmt.Errorf("warm-up check %s: %w", tc.Name, err)
			}
			r.score(rep.Result, tc.Truth)
		}
		w.warm = true
	}
	var layers checkLayers
	stats := map[string]int64{}
	var appendMs, refreshMs, commitMs []float64
	var publishes, dataBytes int64
	rounds := 0
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for ; rounds < refreshScoredRounds || time.Now().Before(deadline); rounds++ {
		rows := w.sampleRows()
		before, err := w.svc.Status(refreshDatabase)
		if err != nil {
			return err
		}
		start, cpu := time.Now(), cpuTime()
		err = w.sc.DB.Append(w.table.Name, rows...)
		appended := time.Since(start)
		var st core.Status
		if err == nil {
			st, err = w.svc.Refresh(ctx, refreshDatabase)
		}
		commit := time.Since(start)
		r.attempted++
		if err != nil {
			r.failed++
			r.fail("commit round %d: %v", w.round, err)
			return nil
		}
		if st.Appended != refreshAppend || st.Version != w.version+1 {
			r.fail("commit round %d: appended %d rows at version %d, want %d at %d",
				w.round, st.Appended, st.Version, refreshAppend, w.version+1)
		}
		w.version, w.rows = st.Version, st.TotalRows
		appendMs = append(appendMs, ms(appended))
		refreshMs = append(refreshMs, ms(commit-appended))
		commitMs = append(commitMs, ms(commit))
		if st.Store != nil && before.Store != nil {
			publishes += st.Store.Publishes - before.Store.Publishes
			dataBytes += st.Store.DataBytes - before.Store.DataBytes
		}

		ck, err := w.svc.Checker(ctx, refreshDatabase)
		if err != nil {
			return err
		}
		busy := commit
		results := make([]*model.Result, len(w.sc.Docs))
		for i, tc := range w.sc.Docs {
			s := time.Now()
			var res *model.Result
			if r.traced {
				t, err := runTraced(ctx, ck, tc.HTML)
				r.attempted++
				if err != nil {
					r.failed++
					r.fail("%s: traced re-check: %v", tc.Name, err)
					continue
				}
				layers.add(t)
				addStats(stats, t.stats)
				r.firstMs = append(r.firstMs, ms(t.first))
				res = t.res
			} else {
				events, err := w.svc.Stream(ctx, refreshDatabase, document.ParseHTML(tc.HTML))
				rep, first, err := drainStream(s, events, err)
				r.attempted++
				if err != nil {
					r.failed++
					r.fail("%s: re-check: %v", tc.Name, err)
					continue
				}
				r.firstMs = append(r.firstMs, ms(first))
				res = rep.Result
			}
			d := time.Since(s)
			r.checkMs = append(r.checkMs, ms(d))
			busy += d
			results[i] = res
		}
		r.rounds = append(r.rounds, round{docs: len(w.sc.Docs), wall: busy, cpu: cpuTime() - cpu})
		if w.round < refreshScoredRounds {
			for i, tc := range w.sc.Docs {
				if results[i] != nil {
					w.fp.add(tc.Name, results[i])
				}
			}
			if w.round == refreshScoredRounds-1 {
				w.fpSum = w.fp.sum()
			}
		}
		w.last = results
		w.round++
	}
	w.checkCold(ctx, r)
	if r.traced {
		layers.record(r)
		n := float64(rounds)
		engineLayers(r, stats, n)
		r.layers["db.append_ms"] = quantile(appendMs, 0.5)
		r.layers["core.refresh_ms"] = quantile(refreshMs, 0.5)
		r.layers["core.commit_ms_p50"] = quantile(commitMs, 0.5)
		r.layers["core.commit_ms_p90"] = quantile(commitMs, 0.9)
		r.layers["colstore.publishes"] = float64(publishes) / n
		r.layers["colstore.bytes_per_row_committed"] = float64(dataBytes) / (n * refreshAppend)
	}
	return nil
}

// checkCold requires the latest round's re-checks to equal a cold checker's
// verdicts on the same snapshot.
func (w *refreshWorkload) checkCold(ctx context.Context, r *recorder) {
	cfg := w.cfg
	cfg.DataDir = ""
	cold := core.NewChecker(w.sc.DB, cfg)
	for i, tc := range w.sc.Docs {
		if w.last[i] == nil {
			continue
		}
		rep, err := cold.Check(ctx, document.ParseHTML(tc.HTML))
		if err != nil {
			r.fail("%s: cold check: %v", tc.Name, err)
			continue
		}
		if d := sameVerdicts(rep.Result, w.last[i]); d != "" {
			r.fail("%s: re-check after commit and cold check differ: %s", tc.Name, d)
		}
	}
}

// finish closes the service's store and reopens the data directory from
// disk: the restored version and row count must equal the last
// acknowledged commit.
func (w *refreshWorkload) finish(r *recorder) error {
	ck, err := w.svc.Checker(context.Background(), refreshDatabase)
	if err != nil {
		return err
	}
	if st := ck.Store(); st != nil {
		if err := st.Close(); err != nil {
			return err
		}
	}
	store, pdb, err := colstore.Open(filepath.Join(w.dataDir, refreshDatabase))
	if err != nil {
		r.fail("durability: reopen store: %v", err)
		return nil
	}
	defer store.Close()
	d, err := db.RestoreDatabase(pdb)
	if err != nil {
		r.fail("durability: restore: %v", err)
		return nil
	}
	snap := d.Snapshot()
	if snap.Version() != w.version || snap.TotalRows() != w.rows {
		r.fail("durability: restored version %d with %d rows, last acknowledged commit was version %d with %d rows",
			snap.Version(), snap.TotalRows(), w.version, w.rows)
	}
	return nil
}
