package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"time"

	policyscope "github.com/policyscope/policyscope"
	"github.com/policyscope/policyscope/dataset"
)

// minColdIters is the fewest iterations a cold-repro run makes: two,
// so RunAllJSON runs once on a cold and once on a cache-hit session.
const minColdIters = 2

// coldIter is one cold start, cache-hit start and full reproduction.
type coldIter struct {
	coldLoad, warm, hitLoad, firstWhatIf, repro, total time.Duration
	wall                                               time.Duration // including the untimed checks between steps
	steal                                              int64         // host steal over the iteration, clock ticks
	digest                                             string
}

func runCold(ctx context.Context, e *env) error {
	before, err := ReadCounters()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	root, err := os.MkdirTemp(workDir, "cold-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	opts := policyscope.DefaultRunAllOptions()
	var iters []coldIter
	var firstView whatIfView
	var firstDoc *policyscope.RunAllDocument
	var hitSess *policyscope.Session
	var tracedTotal, untracedTotal Dist
	end := time.Now().Add(e.seconds)
	for len(iters) < minColdIters || time.Now().Before(end) {
		traced := e.traced && len(iters)%2 == 0
		st := stealTicks()
		it, view, hit, err := coldIteration(ctx, e, root, len(iters), opts, traced)
		if err != nil {
			return err
		}
		it.steal = stealTicks() - st
		if len(iters) == 0 {
			firstView, firstDoc = view, it.doc
			e.res.Set("heap_mb", it.heap)
			e.res.Printf("value heap_mb=%s MB after the first cold set-up", num(it.heap))
		} else {
			e.res.Check(equalViews(view, firstView), "iteration %d: first what-if on the cache hit differs from iteration 0", len(iters))
		}
		if traced {
			tracedTotal = append(tracedTotal, ms(it.wall))
		} else {
			untracedTotal = append(untracedTotal, ms(it.wall))
		}
		hitSess = hit
		iters = append(iters, it.coldIter)
	}
	after, err := ReadCounters()
	if err != nil {
		return err
	}

	var setups, hitFirsts, repros, totals []Sample
	var cold, warm, hitLoad, firstWhatIf Dist
	for i, it := range iters {
		e.res.Ops(3, 0)
		e.res.Check(it.digest == iters[0].digest, "iteration %d: RunAllJSON digest %s differs from iteration 0's %s (%s session)", i, it.digest, iters[0].digest, sessionKind(i))
		setups = append(setups, Sample{(it.coldLoad + it.warm).Seconds(), it.steal})
		cold, warm = append(cold, ms(it.coldLoad)), append(warm, ms(it.warm))
		hitLoad, firstWhatIf = append(hitLoad, ms(it.hitLoad)), append(firstWhatIf, ms(it.firstWhatIf))
		hitFirsts = append(hitFirsts, Sample{ms(it.hitLoad + it.firstWhatIf), it.steal})
		repros = append(repros, Sample{it.repro.Seconds(), it.steal})
		totals = append(totals, Sample{ms(it.total), it.steal})
	}
	setup, hitFirst, repro, total := Calm(setups), Calm(hitFirsts), Calm(repros), Calm(totals)
	e.res.Printf("value digest=%s over %d RunAllJSON documents, alternating cold and cache-hit sessions", iters[0].digest, len(iters))
	e.res.Timing("setup_s", "s", setup, 0)
	e.res.Timing("repro_s", "s", repro, 0)
	e.res.Timing("hit_first_whatif_ms", "ms", hitFirst, 0)
	e.res.Timing("iteration_ms", "ms", total, 0)
	e.res.Timing("dataset.cold_load_ms", "ms", cold, 0)
	e.res.Timing("session.warm_ms", "ms", warm, 0)
	e.res.Timing("dataset.hit_load_ms", "ms", hitLoad, 0)
	e.res.Timing("session.whatif_ms", "ms", firstWhatIf, 0)
	e.res.Set("main_ms", repro.Median()*1000)
	e.res.Set("aux_ms", hitFirst.Median())
	e.res.Set("rate_per_s", 1000/total.Median())
	e.res.Printf("value rate_per_s=%s 1/s = 1 / median %s ms per cold-start iteration", num(1000/total.Median()), num(total.Median()))
	e.res.Ratio("dataset.hit_speedup_x", Ratio{Num: cold.Median(), Den: hitLoad.Median(),
		NumName: "cold load", DenName: "cache-hit load", Unit: "ms"})
	poolBase := fmt.Sprintf("%d pool lookups (one cold, one cache-hit pool per iteration)", 2*len(iters))
	e.res.Count("dataset.pool_hits", after.Delta(before, "policyscope_pool_hits_total"), poolBase)
	e.res.Count("dataset.pool_misses", after.Delta(before, "policyscope_pool_misses_total"), poolBase)
	reportCommonCounters(e, before, after, fmt.Sprintf("%d iterations", len(iters)))

	if !e.traced {
		return nil
	}
	study, err := hitSess.Study()
	if err != nil {
		return err
	}
	if _, err := timeConverge(e, study); err != nil {
		return err
	}
	if err := timeExperiments(ctx, e, root, firstDoc); err != nil {
		return err
	}
	roots := map[string]int{"cold": len(tracedTotal)}
	reportSelf(e, []string{"cold"}, roots, map[string]Dist{"cold": tracedTotal})
	traceOverhead(e, "traced vs untraced cold-start iteration", tracedTotal, untracedTotal)
	return nil
}

func sessionKind(i int) string {
	if i%2 == 0 {
		return "cold"
	}
	return "cache-hit"
}

type coldResult struct {
	coldIter
	heap float64
	doc  *policyscope.RunAllDocument
}

// coldIteration runs the three steps on a fresh cache directory: a
// cold pool session and Warm; a second pool on the same directory, its
// cache-hit load and first what-if; RunAllJSON on the cold session in
// even iterations and on the cache-hit session in odd ones.
func coldIteration(ctx context.Context, e *env, root string, i int, opts policyscope.RunAllOptions, traced bool) (coldResult, whatIfView, *policyscope.Session, error) {
	var res coldResult
	var view whatIfView
	dir := fmt.Sprintf("%s/iter%d", root, i)
	cat, err := e.catalog(dir)
	if err != nil {
		return res, view, nil, err
	}
	t0 := time.Now()
	coldSess, err := dataset.NewPool(cat, 1).Session(ctx, "")
	if err != nil {
		return res, view, nil, fmt.Errorf("cold load: %w", err)
	}
	t1 := time.Now()
	if err := coldSess.Warm(); err != nil {
		return res, view, nil, err
	}
	t2 := time.Now()
	if i == 0 {
		res.heap = heapMB()
	}
	t2b := time.Now()
	hitSess, err := dataset.NewPool(cat, 1).Session(ctx, "")
	if err != nil {
		return res, view, nil, fmt.Errorf("cache-hit load: %w", err)
	}
	t3 := time.Now()
	study, err := hitSess.Study()
	if err != nil {
		return res, view, nil, err
	}
	sc := whatIfScenarios(study.Topo, e.seed)[0]
	rep, err := hitSess.WhatIf(ctx, sc)
	if err != nil {
		return res, view, nil, fmt.Errorf("first what-if: %w", err)
	}
	t4 := time.Now()
	doc, err := json.Marshal(rep)
	if err != nil {
		return res, view, nil, err
	}
	if view, err = viewOf(doc); err != nil {
		return res, view, nil, err
	}
	t5 := time.Now()
	target := coldSess
	if i%2 == 1 {
		target = hitSess
	}
	runAll, err := target.RunAllJSON(ctx, opts)
	if err != nil {
		return res, view, nil, err
	}
	t6 := time.Now()
	b, err := json.Marshal(runAll)
	if err != nil {
		return res, view, nil, err
	}
	res.doc = runAll
	sum := sha256.Sum256(b)
	res.digest = hex.EncodeToString(sum[:])
	res.coldLoad, res.warm = t1.Sub(t0), t2.Sub(t1)
	res.hitLoad, res.firstWhatIf = t3.Sub(t2b), t4.Sub(t3)
	res.repro = t6.Sub(t5)
	res.total = res.coldLoad + res.warm + res.hitLoad + res.firstWhatIf + res.repro
	res.wall = t6.Sub(t0)
	if traced {
		id := fmt.Sprintf("cold-%d", i)
		rec := e.rec
		r := rec.Add(0, "cold.other", id, t0, t6)
		rec.Add(r, "cold.cold_load", id, t0, t1)
		rec.Add(r, "cold.warm", id, t1, t2)
		rec.Add(r, "cold.hit_load", id, t2b, t3)
		rec.Add(r, "cold.first_whatif", id, t3, t4)
		rec.Add(r, "cold.run_all", id, t5, t6)
	}
	return res, view, hitSess, nil
}

func equalViews(a, b whatIfView) bool { return reflect.DeepEqual(a, b) }

// timeExperiments times every experiment invocation RunAllJSON makes,
// in its order, on a fresh cache-hit session, so shared memos (the
// persistence series figure6 and figure7 share) are paid where the
// full run pays them.
func timeExperiments(ctx context.Context, e *env, root string, doc *policyscope.RunAllDocument) error {
	cat, err := e.catalog(fmt.Sprintf("%s/iter0", root))
	if err != nil {
		return err
	}
	sess, err := dataset.NewPool(cat, 1).Session(ctx, "")
	if err != nil {
		return err
	}
	known := map[string]bool{}
	for _, name := range runAllExperiments {
		known[name] = true
	}
	per := map[string]float64{}
	for _, out := range doc.Experiments {
		t0 := time.Now()
		if _, err := sess.Run(ctx, out.Name, out.Params); err != nil {
			return fmt.Errorf("%s: %w", out.Name, err)
		}
		name := out.Name
		if !known[name] {
			name = "other"
		}
		per[name] += ms(time.Since(t0))
	}
	total := 0.0
	for name, v := range per {
		e.res.Set("session.run_ms."+name, v)
		total += v
	}
	for _, name := range append(append([]string(nil), runAllExperiments...), "other") {
		if v, ok := per[name]; ok {
			e.res.Printf("value session.run_ms.%s=%s ms (%s%% of %s ms over %d invocations)", name, num(v), num(v/total*100), num(total), len(doc.Experiments))
		}
	}
	return nil
}
