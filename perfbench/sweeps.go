package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	policyscope "github.com/policyscope/policyscope"
	"github.com/policyscope/policyscope/internal/dsweep"
	"github.com/policyscope/policyscope/internal/simulate"
	"github.com/policyscope/policyscope/internal/sweep"
	"github.com/policyscope/policyscope/server"
)

// shardSize splits the capped spec into several shards, so both
// loopback workers take part; the production default (256) would put
// the whole spec in one shard on one worker.
const shardSize = 16

// minSweepOps is the fewest sweeps a run makes, however short.
const minSweepOps = 3

// firstRecords is how many streamed records aux_ms waits for: one
// shard's worth, the unit in which dsweep merges, so both sweep
// workloads time the same amount of work to first feedback.
const firstRecords = shardSize

// samplePerFamily is how many records per family the check recomputes.
const samplePerFamily = 3

// sweepOp is one complete sweep as its caller sees it: expansion, the
// streamed records, the aggregate.
type sweepOp struct {
	expand, wall, first time.Duration // first: until firstRecords records streamed
	digest              string
	records             [][]byte
	errors              int
	busy                time.Duration
	executors           int
	reclones            int
	steal               int64 // host steal during the op, clock ticks
}

// recordSink hashes the ordered record stream and the aggregate.
type recordSink struct {
	first   time.Time
	records [][]byte
	errors  int
}

func (s *recordSink) add(imp *sweep.Impact) error {
	if len(s.records)+1 == firstRecords {
		s.first = time.Now()
	}
	b, err := json.Marshal(imp)
	if err != nil {
		return err
	}
	if imp.Error != "" {
		s.errors++
	}
	s.records = append(s.records, b)
	return nil
}

// digest hashes every record in order, then the aggregate.
func (s *recordSink) digest(agg *sweep.Aggregate) (string, error) {
	h := sha256.New()
	for _, r := range s.records {
		h.Write(r)
		h.Write([]byte{'\n'})
	}
	b, err := json.Marshal(agg)
	if err != nil {
		return "", err
	}
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// sweepRig is a warmed session plus, for the distributed workload, two
// loopback workers serving the same pool.
type sweepRig struct {
	e       *env
	sess    *policyscope.Session
	spec    sweep.Spec
	workers []*loopback
	client  *http.Client
	shards  *shardTrace
	opSeq   atomic.Int64
}

func (r *sweepRig) close() {
	for _, w := range r.workers {
		w.stop()
	}
	if r.client != nil {
		r.client.CloseIdleConnections()
	}
}

func runSweep(ctx context.Context, e *env) error  { return sweepWorkload(ctx, e, false) }
func runDSweep(ctx context.Context, e *env) error { return sweepWorkload(ctx, e, true) }

func sweepWorkload(ctx context.Context, e *env, distributed bool) error {
	before, err := ReadCounters()
	if err != nil {
		return err
	}
	var setups []Sample
	var loads, warms Dist
	rig := &sweepRig{e: e}
	defer rig.close()
	if e.traced && distributed {
		rig.shards = newShardTrace(e.rec)
	}
	for k := 0; k < setupRepeats; k++ {
		t0, st := time.Now(), stealTicks()
		pool, sess, load, warm, err := e.coldSession(ctx)
		if err != nil {
			return err
		}
		var lbs []*loopback
		for w := 0; distributed && w < 2; w++ {
			var h http.Handler = server.New(pool)
			if rig.shards != nil {
				h = rig.shards.handler(h)
			}
			lb, err := startLoopback(h)
			if err != nil {
				for _, l := range lbs {
					l.stop()
				}
				return err
			}
			lbs = append(lbs, lb)
		}
		setups = append(setups, Sample{V: time.Since(t0).Seconds(), Steal: stealTicks() - st})
		loads, warms = append(loads, ms(load)), append(warms, ms(warm))
		if k == 0 {
			rig.sess, rig.workers = sess, lbs
			continue
		}
		for _, lb := range lbs {
			if err := lb.stop(); err != nil {
				return err
			}
		}
	}
	e.res.Timing("setup_s", "s", Calm(setups), 0)
	e.res.Timing("dataset.cold_load_ms", "ms", loads, 0)
	e.res.Timing("session.warm_ms", "ms", warms, 0)
	e.res.Set("heap_mb", heapMB())
	e.res.Printf("value heap_mb=%s MB", num(e.res.values["heap_mb"]))

	study, err := rig.sess.Study()
	if err != nil {
		return err
	}
	if rig.spec, err = sweepSpec(study.Topo, e.seed); err != nil {
		return err
	}
	scs, err := rig.sess.SweepScenarios(ctx, rig.spec)
	if err != nil {
		return err
	}
	counts := familyCounts(scs)
	for f, want := range sweepFamilySizes {
		if counts[f] != want {
			return fmt.Errorf("spec expanded to %d %s scenarios, want %d", counts[f], f, want)
		}
	}
	e.identity["scenarios"] = len(scs)
	e.identity["scenarios_per_family"] = counts
	if distributed {
		e.identity["workers"] = len(rig.workers)
		e.identity["shard_size"] = shardSize
		e.identity["worker_parallelism"] = 1
		rig.client = newClient(e.nproc)
		if rig.shards != nil {
			rig.client.Transport = rig.shards.transport(rig.client.Transport)
		}
	} else {
		e.identity["executor_workers"] = e.nproc
	}

	run := rig.local
	if distributed {
		run = rig.distributed
	}
	end := time.Now().Add(e.seconds)
	var ops []sweepOp
	var tracedWall, untracedWall Dist
	for len(ops) < minSweepOps || time.Now().Before(end) {
		traced := e.traced && len(ops)%2 == 0
		st := stealTicks()
		op, err := run(ctx, traced)
		if err != nil {
			return err
		}
		op.steal = stealTicks() - st
		if traced {
			tracedWall = append(tracedWall, ms(op.wall))
		} else {
			untracedWall = append(untracedWall, ms(op.wall))
		}
		if len(ops) > 0 {
			op.records = nil // only the first op's records are checked
		}
		ops = append(ops, op)
	}
	after, err := ReadCounters()
	if err != nil {
		return err
	}

	// Checks: every op streamed the same records and aggregate; a seeded
	// sample equals sweep.Apply on a fresh clone of the base engine.
	var walls, firsts []Sample
	var expand Dist
	busy, reclones, executors := time.Duration(0), 0, 0
	for _, op := range ops {
		e.res.Ops(len(scs), 0)
		if op.errors > 0 {
			e.res.FailN(op.errors, "%d scenarios returned an error record", op.errors)
		}
		e.res.Check(op.digest == ops[0].digest, "sweep %s differs between repetitions", op.digest)
		walls = append(walls, Sample{V: ms(op.wall), Steal: op.steal})
		firsts = append(firsts, Sample{V: ms(op.first), Steal: op.steal})
		expand = append(expand, ms(op.expand))
		busy += op.busy
		reclones += op.reclones
		executors += op.executors
	}
	t0 := time.Now()
	base, err := study.WhatIfEngine()
	if err != nil {
		return err
	}
	if e.traced {
		e.res.Timing("engine.converge_ms", "ms", Dist{ms(time.Since(t0))}, 0)
	}
	sample := sampleIndices(scs, e.seed)
	var probes []probe
	var probeScs []simulate.Scenario
	for _, i := range sample {
		// The executor's default per-record detail is three shifts.
		imp, _, err := sweep.Apply(base.Clone(), scs[i], 3)
		if err != nil {
			imp = &sweep.Impact{Name: scs[i].Name, Events: len(scs[i].Events), Error: err.Error()}
		}
		imp.Index = i
		got := ops[0].records[i]
		b, err := json.Marshal(imp)
		if err != nil {
			return err
		}
		e.res.Check(bytes.Equal(got, b), "record %d (%s) differs from sweep.Apply on a fresh clone", i, scs[i].Name)
		if e.traced {
			probes = append(probes, timeEngine(base, scs[i]))
			probeScs = append(probeScs, scs[i])
		}
	}
	e.res.Printf("value digest=%s over %d scenarios", ops[0].digest, len(scs))

	var local Dist
	if distributed {
		// The distributed stream must equal the single-process one.
		reps := 1
		if e.traced {
			reps = 3
		}
		for i := 0; i < reps; i++ {
			op, err := rig.local(ctx, false)
			if err != nil {
				return err
			}
			local = append(local, ms(op.wall))
			e.res.Check(op.digest == ops[0].digest, "distributed digest %s differs from Session.Sweep digest %s", ops[0].digest, op.digest)
		}
	}

	n := float64(len(scs))
	wall, first := Calm(walls), Calm(firsts)
	rate := n / (wall.Median() / 1000)
	name := "sweep"
	if distributed {
		name = "dsweep"
	}
	e.res.Timing(name+"_ms.all", "ms", All(walls), 0)
	e.res.Timing(name+"_ms", "ms", wall, 0)
	e.res.Timing(fmt.Sprintf("%s_first_%d_records_ms", name, firstRecords), "ms", first, 0)
	named(e, name+"_scen_per_s", "1/s", rate, len(wall))
	e.res.Set("main_ms", wall.Median())
	e.res.Set("aux_ms", first.Median())
	e.res.Set("rate_per_s", rate)
	e.res.Printf("value rate_per_s=%s 1/s = %d scenarios / median %s ms per sweep", num(rate), len(scs), num(wall.Median()))

	poolBase := fmt.Sprintf("%d set-ups", setupRepeats)
	if distributed {
		poolBase += " + one lookup per shard request"
	}
	e.res.Count("dataset.pool_hits", after.Delta(before, "policyscope_pool_hits_total"), poolBase)
	e.res.Count("dataset.pool_misses", after.Delta(before, "policyscope_pool_misses_total"), poolBase)
	scenBase := fmt.Sprintf("%d sweeps of %d scenarios", len(ops), len(scs))
	reportCommonCounters(e, before, after, scenBase)
	restores := after.Delta(before, "policyscope_sweep_restore_total")
	for _, mode := range []string{"journal", "inverse", "reclone"} {
		e.res.Count("sweep.restores_"+mode, after.Delta(before, "policyscope_sweep_restore_total", `mode="`+mode+`"`), fmt.Sprintf("%s restores over %s", num(restores), scenBase))
	}
	if distributed {
		shardBase := fmt.Sprintf("%s shards dispatched", num(after.Delta(before, "policyscope_dsweep_shards_dispatched_total")))
		e.res.Count("dsweep.retries", after.Delta(before, "policyscope_dsweep_shard_retries_total"), shardBase)
		e.res.Count("dsweep.reassigned", after.Delta(before, "policyscope_dsweep_shards_reassigned_total"), shardBase)
		e.res.Count("dsweep.speculated", after.Delta(before, "policyscope_dsweep_shards_speculated_total"), shardBase)
	}

	if !e.traced {
		return nil
	}
	e.res.Timing("sweep.expand_ms", "ms", expand, 0)
	e.res.Ratio("sweep.busy_frac", Ratio{Num: ms(busy), Den: All(walls).Sum() * float64(executors) / float64(len(ops)),
		NumName: "executor busy time", DenName: "executors x sweep wall time", Unit: "ms"})
	e.res.Ratio("sweep.reclone_frac", Ratio{Num: float64(reclones), Den: n * float64(len(ops)),
		NumName: "re-clones", DenName: "scenarios", Unit: "count"})
	reportEngineProbes(e, probeScs, probes)
	if err := familySweeps(ctx, e, rig.sess, scs); err != nil {
		return err
	}
	if distributed {
		e.res.Ratio("dsweep.vs_local_x", Ratio{Num: rate, Den: n / (local.Median() / 1000),
			NumName: "dsweep scenarios/s", DenName: "Session.Sweep scenarios/s", Unit: "1/s"})
		rig.shards.report(e)
		e.res.Printf("note dsweep shards run on %d workers at once, so transport and worker self times add up across concurrent spans", len(rig.workers))
	}
	kind := name
	roots := map[string]int{kind: len(tracedWall)}
	lat := map[string]Dist{kind: tracedWall}
	reportSelf(e, []string{kind}, roots, lat)
	traceOverhead(e, "traced vs untraced "+name+" wall time", tracedWall, untracedWall)
	return nil
}

// sampleIndices draws up to samplePerFamily scenario indices per family.
func sampleIndices(scs []simulate.Scenario, seed int64) []int {
	rng := rand.New(rand.NewSource(seed ^ 0xc4ec))
	byFam := map[string][]int{}
	for i, sc := range scs {
		byFam[family(sc)] = append(byFam[family(sc)], i)
	}
	var out []int
	for _, f := range families {
		out = append(out, pick(rng, byFam[f], samplePerFamily)...)
	}
	return out
}

// familySweeps times one single-worker Session.Sweep per family, so
// each family's per-scenario cost is measured through the executor.
func familySweeps(ctx context.Context, e *env, sess *policyscope.Session, scs []simulate.Scenario) error {
	byFam := map[string][]simulate.Scenario{}
	for _, sc := range scs {
		byFam[family(sc)] = append(byFam[family(sc)], sc)
	}
	for _, f := range families {
		if len(byFam[f]) == 0 {
			continue
		}
		t0 := time.Now()
		if _, err := sess.Sweep(ctx, byFam[f], sweep.Options{Workers: 1}); err != nil {
			return err
		}
		per := ms(time.Since(t0)) / float64(len(byFam[f]))
		e.res.Set("sweep.scen_ms."+f, per)
		e.res.Printf("value sweep.scen_ms.%s=%s ms per scenario, one worker, %d scenarios", f, num(per), len(byFam[f]))
	}
	return nil
}

// local runs the spec through Session.Sweep with nproc executor workers.
func (r *sweepRig) local(ctx context.Context, traced bool) (sweepOp, error) {
	var op sweepOp
	sink := &recordSink{}
	var mu sync.Mutex
	t0 := time.Now()
	scs, err := r.sess.SweepScenarios(ctx, r.spec)
	if err != nil {
		return op, err
	}
	t1 := time.Now()
	agg, err := r.sess.Sweep(ctx, scs, sweep.Options{
		Workers:  r.e.nproc,
		OnImpact: sink.add,
		OnWorkerDone: func(ws sweep.WorkerStats) {
			mu.Lock()
			op.busy += ws.Busy
			op.reclones += ws.Reclones
			op.executors++
			mu.Unlock()
		},
	})
	t2 := time.Now()
	if err != nil {
		return op, err
	}
	if traced {
		id := fmt.Sprintf("sweep-%d", r.opSeq.Add(1))
		root := r.e.rec.Add(0, "sweep.other", id, t0, t2)
		r.e.rec.Add(root, "sweep.expand", id, t0, t1)
		r.e.rec.Add(root, "sweep.executor", id, t1, t2)
	}
	return r.finish(op, sink, agg, t0, t1, t2)
}

func (r *sweepRig) finish(op sweepOp, sink *recordSink, agg *sweep.Aggregate, t0, t1, t2 time.Time) (sweepOp, error) {
	var err error
	op.expand, op.wall, op.first = t1.Sub(t0), t2.Sub(t0), sink.first.Sub(t0)
	op.records, op.errors = sink.records, sink.errors
	op.digest, err = sink.digest(agg)
	return op, err
}

// distributed runs the spec through dsweep.Run against the two
// loopback workers.
func (r *sweepRig) distributed(ctx context.Context, traced bool) (sweepOp, error) {
	var op sweepOp
	sink := &recordSink{}
	study, err := r.sess.Study()
	if err != nil {
		return op, err
	}
	urls := make([]string, len(r.workers))
	for i, w := range r.workers {
		urls[i] = w.url
	}
	id := fmt.Sprintf("dsweep-%d", r.opSeq.Add(1))
	if r.shards != nil {
		r.shards.begin(id, traced)
	}
	t0 := time.Now()
	scs, err := r.sess.SweepScenarios(ctx, r.spec)
	if err != nil {
		return op, err
	}
	t1 := time.Now()
	agg, err := dsweep.Run(ctx, r.spec, scs, dsweep.Options{
		Workers:           urls,
		ShardSize:         shardSize,
		WorkerParallelism: 1,
		Vantages:          dsweep.VantageFingerprint(study.Peers),
		Client:            r.client,
		OnImpact:          sink.add,
		// Calls are serialized by the coordinator.
		OnShardDone: func(_ string, d dsweep.ShardDone) {
			for _, ws := range d.WorkerStats {
				op.busy += ws.Busy
				op.reclones += ws.Reclones
			}
		},
	})
	t2 := time.Now()
	if err != nil {
		return op, err
	}
	op.executors = len(r.workers)
	if traced {
		r.e.rec.Add(0, "dsweep.expand", id, t0, t1)
		coord := r.e.rec.Add(0, "dsweep.coordinator", id, t1, t2)
		r.shards.flush(coord)
	}
	return r.finish(op, sink, agg, t0, t1, t2)
}

// shardTrace times the shard protocol from both ends: a client
// transport around each POST /sweep/shard exchange, through the end of
// its response body, and a handler wrapper around each worker's
// execution. A request header pairs the two.
type shardTrace struct {
	rec *Recorder
	mu  sync.Mutex
	op  string
	on  bool
	seq int
	rtt map[string][2]time.Time // token -> client send, body closed
	srv map[string][2]time.Time // token -> handler entry, exit
	all struct{ rtt, worker Dist }
}

const shardHeader = "X-Perfbench-Shard"

func newShardTrace(rec *Recorder) *shardTrace {
	return &shardTrace{rec: rec, rtt: map[string][2]time.Time{}, srv: map[string][2]time.Time{}}
}

func (s *shardTrace) begin(op string, on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.op, s.on = op, on
	s.rtt, s.srv = map[string][2]time.Time{}, map[string][2]time.Time{}
}

type rtFunc func(*http.Request) (*http.Response, error)

func (f rtFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

func (s *shardTrace) transport(base http.RoundTripper) http.RoundTripper {
	return rtFunc(func(req *http.Request) (*http.Response, error) {
		s.mu.Lock()
		on := s.on
		s.seq++
		tok := fmt.Sprintf("%s/%d", s.op, s.seq)
		s.mu.Unlock()
		if !on {
			return base.RoundTrip(req)
		}
		req = req.Clone(req.Context())
		req.Header.Set(shardHeader, tok)
		start := time.Now()
		resp, err := base.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
			s.mu.Lock()
			s.rtt[tok] = [2]time.Time{start, time.Now()}
			s.mu.Unlock()
		}}
		return resp, nil
	})
}

// timedBody calls done once, when the body is closed.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

func (s *shardTrace) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tok := r.Header.Get(shardHeader)
		start := time.Now()
		next.ServeHTTP(w, r)
		if tok == "" {
			return
		}
		s.mu.Lock()
		s.srv[tok] = [2]time.Time{start, time.Now()}
		s.mu.Unlock()
	})
}

// flush records the op's shard spans under the coordinator span.
func (s *shardTrace) flush(coord int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for tok, c := range s.rtt {
		rid := s.rec.Add(coord, "dsweep.transport", s.op, c[0], c[1])
		s.all.rtt = append(s.all.rtt, ms(c[1].Sub(c[0])))
		if w, ok := s.srv[tok]; ok {
			s.rec.Add(rid, "dsweep.worker", s.op, w[0], w[1])
			s.all.worker = append(s.all.worker, ms(w[1].Sub(w[0])))
		}
	}
	s.on = false
}

func (s *shardTrace) report(e *env) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e.res.Timing("dsweep.shard_rtt_ms", "ms", s.all.rtt, 90)
	e.res.Set("dsweep.shard_rtt_p50_ms", s.all.rtt.Median())
	if s.all.rtt.Supports(90) {
		e.res.Set("dsweep.shard_rtt_p90_ms", s.all.rtt.Percentile(90))
	}
	e.res.Timing("dsweep.worker_shard_ms", "ms", s.all.worker, 0)
}
