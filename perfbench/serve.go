package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"time"

	policyscope "github.com/policyscope/policyscope"
	"github.com/policyscope/policyscope/internal/simulate"
	"github.com/policyscope/policyscope/server"
)

// openRate is the open-loop phase's fixed offered rate. At the paper
// preset's ~100 ms what-if it keeps two cores well below saturation,
// so the phase measures latency rather than a growing queue.
const openRate = 4.0

// openShare is the part of each block given to the open loop; the
// closed-loop capacity phase gets the rest.
const openShare = 0.7

// serveBlocks alternates the two phases this many times, so a slow
// spell of the machine lands on both phases alike instead of on one.
const serveBlocks = 5

// maxLateP50 marks a run invalid: a generator whose median lateness is
// this large fell behind its schedule, and its latencies mean nothing.
const maxLateP50 = 10 * time.Millisecond

// loopback is one server.New handler on a real 127.0.0.1 listener.
type loopback struct {
	hs   *http.Server
	url  string
	done chan error
}

func startLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{
		hs:   &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { lb.done <- lb.hs.Serve(ln) }()
	return lb, nil
}

// stop shuts the server down and waits for Serve to return.
func (lb *loopback) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := lb.hs.Shutdown(ctx)
	if serveErr := <-lb.done; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	return err
}

// newClient is the load generator's HTTP client: at most nproc
// connections to the one host.
func newClient(nproc int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     nproc,
		MaxIdleConnsPerHost: nproc,
		DisableCompression:  true,
	}}
}

// serverSpan is one line of a ?trace=1 span summary.
type serverSpan struct {
	Name    string  `json:"name"`
	StartMs float64 `json:"start_ms"`
	DurMs   float64 `json:"dur_ms"`
	TotalMs float64 `json:"total_ms"`
}

// reply is one request's outcome, kept for checking after the run.
type reply struct {
	req     request
	status  int
	body    []byte // the response document, without trace lines
	traced  bool
	spans   []serverSpan
	totalMs float64 // handler time from the trace summary
	timing  Timing
}

// splitTrace separates a ?trace=1 response into the document and the
// NDJSON span lines after it.
func splitTrace(raw []byte) ([]byte, []serverSpan, float64, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	var doc json.RawMessage
	if err := dec.Decode(&doc); err != nil {
		return nil, nil, 0, err
	}
	end := int(dec.InputOffset())
	for end < len(raw) && raw[end] == '\n' {
		end++
	}
	var spans []serverSpan
	total := -1.0
	for {
		var s serverSpan
		if err := dec.Decode(&s); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, 0, fmt.Errorf("trace lines: %w", err)
		}
		if s.Name == "" {
			total = s.TotalMs
			continue
		}
		spans = append(spans, s)
	}
	if total < 0 {
		return nil, nil, 0, errors.New("trace summary line missing")
	}
	return raw[:end], spans, total, nil
}

type serveRun struct {
	e       *env
	client  *http.Client
	url     string
	plan    []request
	payload [][]byte // JSON body per what-if scenario
}

func (s *serveRun) send(ctx context.Context, r request, traced bool) (int, []byte, error) {
	var url string
	var body io.Reader
	if r.whatIf >= 0 {
		url, body = s.url+"/whatif", bytes.NewReader(s.payload[r.whatIf])
	} else {
		url, body = s.url+"/run/"+r.table, http.NoBody
	}
	if traced {
		url += "?trace=1"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, body)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// phase drives one load phase and returns every reply. In a traced run
// even plan indices carry ?trace=1 and odd ones do not, so the two
// halves of one phase give the tracing overhead.
func (s *serveRun) phase(ctx context.Context, open bool, dur time.Duration, offset int) []reply {
	replies := make([]reply, 0, 256)
	raws := make(map[int][]byte)
	status := make(map[int]int)
	var mu sync.Mutex
	do := func(ctx context.Context, i int) error {
		r := s.plan[(offset+i)%len(s.plan)]
		code, raw, err := s.send(ctx, r, s.e.traced && i%2 == 0)
		mu.Lock()
		raws[i], status[i] = raw, code
		mu.Unlock()
		return err
	}
	var timings []Timing
	if open {
		timings = OpenLoop(ctx, openRate, dur, s.e.nproc, do)
	} else {
		timings, _ = ClosedLoop(ctx, dur, s.e.nproc, do)
	}
	for _, t := range timings {
		rp := reply{req: s.plan[(offset+t.Index)%len(s.plan)], status: status[t.Index], timing: t,
			traced: s.e.traced && t.Index%2 == 0, body: raws[t.Index]}
		if t.Err == nil && rp.status == http.StatusOK && rp.traced {
			doc, spans, total, err := splitTrace(rp.body)
			if err != nil {
				rp.timing.Err = err
			} else {
				rp.body, rp.spans, rp.totalMs = doc, spans, total
			}
		}
		replies = append(replies, rp)
	}
	return replies
}

// whatIfView is the part of a what-if report the check compares.
type whatIfView struct {
	Delta struct {
		Recomputed  int
		ReachDeltas []struct {
			Prefix        string
			Before, After int
		}
	}
	PeerBestChanged        map[string]int
	LostReach, GainedReach int
}

func viewOf(doc []byte) (whatIfView, error) {
	var v whatIfView
	err := json.Unmarshal(doc, &v)
	return v, err
}

// probe is one what-if scenario timed layer by layer from outside: the
// session call on an independent session, and the engine's clone, apply
// and rollback on a base engine built the way the session builds its
// own.
type probe struct {
	view                 whatIfView
	whatIf, clone, apply time.Duration
	rollback             time.Duration
	refused              bool
}

func runServe(ctx context.Context, e *env) error {
	before, err := ReadCounters()
	if err != nil {
		return err
	}
	var (
		setups       []Sample
		loads, warms Dist
		lb           *loopback
		sess         *policyscope.Session
	)
	defer func() {
		if lb != nil {
			lb.stop()
		}
	}()
	for k := 0; k < setupRepeats; k++ {
		t0, st := time.Now(), stealTicks()
		p, s, load, warm, err := e.coldSession(ctx)
		if err != nil {
			return err
		}
		l, err := startLoopback(server.New(p))
		if err != nil {
			return err
		}
		setups = append(setups, Sample{V: time.Since(t0).Seconds(), Steal: stealTicks() - st})
		loads, warms = append(loads, ms(load)), append(warms, ms(warm))
		if k == 0 {
			lb, sess = l, s
		} else if err := l.stop(); err != nil {
			return err
		}
	}
	e.res.Timing("setup_s", "s", Calm(setups), 0)
	e.res.Timing("dataset.cold_load_ms", "ms", loads, 0)
	e.res.Timing("session.warm_ms", "ms", warms, 0)
	e.res.Set("heap_mb", heapMB())
	e.res.Printf("value heap_mb=%s MB", num(e.res.values["heap_mb"]))

	study, err := sess.Study()
	if err != nil {
		return err
	}
	scs := whatIfScenarios(study.Topo, e.seed)
	s := &serveRun{e: e, client: newClient(e.nproc), url: lb.url, plan: trafficPlan(scs, e.seed, 4096)}
	defer s.client.CloseIdleConnections()
	for _, sc := range scs {
		b, err := json.Marshal(sc)
		if err != nil {
			return err
		}
		s.payload = append(s.payload, b)
	}
	e.identity["scenarios_per_family"] = familyCounts(scs)
	e.identity["offered_rate_per_s"] = openRate
	e.identity["clients"] = e.nproc
	e.identity["mix"] = "70% POST /whatif, 30% POST /run/{table2,table5,table7}"

	blockDur := e.seconds / serveBlocks
	openDur := time.Duration(float64(blockDur) * openShare)
	var open, closed []reply
	var blocks []Sample // closed-loop requests per second of each block
	for b := 0; b < serveBlocks; b++ {
		o := s.phase(ctx, true, openDur, len(open)+len(closed))
		t, st := time.Now(), stealTicks()
		c := s.phase(ctx, false, blockDur-openDur, len(open)+len(o)+len(closed))
		el := time.Since(t)
		done := 0
		for _, rp := range c {
			if rp.timing.Err == nil && rp.status == http.StatusOK {
				done++
			}
		}
		blocks = append(blocks, Sample{V: float64(done) / el.Seconds(), Steal: stealTicks() - st})
		e.res.Printf("block %d: %d open-loop requests; %d closed-loop replies in %s s, host steal %d ticks", b, len(o), done, num(el.Seconds()), blocks[b].Steal)
		open, closed = append(open, o...), append(closed, c...)
	}
	after, err := ReadCounters()
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	// The independent reference session answers every distinct what-if
	// the server was asked; its timings are the session-layer probe.
	_, ref, _, _, err := e.coldSession(ctx)
	if err != nil {
		return fmt.Errorf("reference session: %w", err)
	}
	probes, err := probeWhatIfs(ctx, e, ref, scs)
	if err != nil {
		return err
	}
	checkReplies(e, append(open, closed...), probes)

	var whatIfs, runs []Sample
	var late, trWhat, untrWhat Dist
	perTable := map[string][]Sample{}
	for _, rp := range open {
		late = append(late, ms(rp.timing.Late()))
		smp := Sample{V: ms(rp.timing.Latency()), Steal: rp.timing.Steal}
		if rp.req.whatIf < 0 {
			runs = append(runs, smp)
			perTable[rp.req.table] = append(perTable[rp.req.table], smp)
			continue
		}
		whatIfs = append(whatIfs, smp)
		if rp.traced {
			trWhat = append(trWhat, smp.V)
		} else {
			untrWhat = append(untrWhat, smp.V)
		}
	}
	if e.traced {
		// Traced and untraced requests share each phase; the open-loop
		// figures are reported per half in the trace overhead below.
		e.res.Printf("note traced run: latencies below mix traced and untraced requests")
	}
	e.res.Timing("whatif_ms.all", "ms", All(whatIfs), 90)
	e.res.Timing("run_ms.all", "ms", All(runs), 90)
	whatIfCalm, runCalm := Calm(whatIfs), Calm(runs)
	e.res.Timing("whatif_ms", "ms", whatIfCalm, 90)
	e.res.Timing("run_ms", "ms", runCalm, 90)
	// The reads are three tables of very different cost; the median of
	// the pooled sample sits on the edge of a cluster and jumps with the
	// draw, so the read figure is the mean of the per-table medians.
	tableP50 := 0.0
	for _, t := range serveTables {
		d := Calm(perTable[t])
		e.res.Timing("run_ms."+t, "ms", d, 0)
		tableP50 += d.Median() / float64(len(serveTables))
	}
	calmBlocks := Calm(blocks)
	rps := calmBlocks.Mean()
	named(e, "whatif_p50_ms", "ms", whatIfCalm.Median(), len(whatIfCalm))
	namedPct(e, "whatif_p90_ms", whatIfCalm, 90)
	named(e, "run_p50_ms", "ms", runCalm.Median(), len(runCalm))
	namedPct(e, "run_p90_ms", runCalm, 90)
	named(e, "serve_rps", "1/s", rps, len(calmBlocks))
	e.res.Set("main_ms", whatIfCalm.Median())
	e.res.Set("aux_ms", tableP50)
	e.res.Printf("value aux_ms=%s ms = mean of the per-table /run p50s", num(tableP50))
	e.res.Set("rate_per_s", rps)
	e.res.Printf("value rate_per_s=%s 1/s = mean closed-loop replies/s of the %d calmest of %d blocks, %d clients", num(rps), len(calmBlocks), len(blocks), e.nproc)
	e.res.Timing("gen.late_ms", "ms", late, 0)
	e.res.Set("gen.late_p50_ms", late.Median())
	e.res.Set("gen.late_max_ms", late.Max())
	e.res.Printf("value gen.late_max_ms=%s ms over %d open-loop sends", num(late.Max()), len(late))
	if lp := late.Median(); lp > ms(maxLateP50) {
		e.res.Fail("open-loop generator fell behind: median lateness %s ms > %s ms; the run is invalid", num(lp), num(ms(maxLateP50)))
	}

	requests := len(open) + len(closed)
	poolBase := fmt.Sprintf("%d pool lookups (%d set-ups + %d requests)", setupRepeats+requests, setupRepeats, requests)
	e.res.Count("dataset.pool_hits", after.Delta(before, "policyscope_pool_hits_total"), poolBase)
	e.res.Count("dataset.pool_misses", after.Delta(before, "policyscope_pool_misses_total"), poolBase)
	reportCommonCounters(e, before, after, fmt.Sprintf("%d requests", requests))
	e.res.Count("http.shed", after.Delta(before, "policyscope_http_shed_total"), fmt.Sprintf("%d requests", requests))
	e.res.Count("http.5xx", after.Delta(before, "policyscope_http_responses_total", `class="5xx"`), fmt.Sprintf("%d requests", requests))

	if e.traced {
		reportServeLayers(e, scs, append(open, closed...), probes, trWhat, untrWhat)
	}
	return nil
}

// named prints an end-to-end figure under its own name.
func named(e *env, name, unit string, v float64, n int) {
	e.res.Printf("metric %s=%s %s n=%d", name, num(v), unit, n)
}

// namedPct prints a named percentile, or says the samples cannot
// support it.
func namedPct(e *env, name string, d Dist, q float64) {
	if !d.Supports(q) {
		e.res.Printf("metric %s=unsupported ms n=%d (needs %d samples beyond p%g)", name, len(d), minBeyond, q)
		return
	}
	named(e, name, "ms", d.Percentile(q), len(d))
}

// reportCommonCounters reports the program's counters every workload
// shares, each with its base.
func reportCommonCounters(e *env, before, after Counters, base string) {
	e.res.Count("session.memo_hits", after.Delta(before, "policyscope_session_memo_total", `result="hit"`), "session memo lookups over "+base)
	e.res.Count("session.memo_misses", after.Delta(before, "policyscope_session_memo_total", `result="miss"`), "session memo lookups over "+base)
	e.res.Count("engine.activations", after.Delta(before, "policyscope_converge_activations_total"), "propagation steps over set-up and "+base)
	e.res.Count("engine.rollbacks_unsupported", after.Delta(before, "policyscope_journal_rollbacks_unsupported_total"),
		fmt.Sprintf("%s journal rollbacks", num(after.Delta(before, "policyscope_journal_rollbacks_total")+after.Delta(before, "policyscope_journal_rollbacks_unsupported_total"))))
}

// probeWhatIfs answers each scenario on the reference session and, in a
// traced run, times the engine layer on the same scenarios.
func probeWhatIfs(ctx context.Context, e *env, ref *policyscope.Session, scs []simulate.Scenario) ([]probe, error) {
	probes := make([]probe, len(scs))
	for k, sc := range scs {
		t0 := time.Now()
		rep, err := ref.WhatIf(ctx, sc)
		if err != nil {
			return nil, fmt.Errorf("reference what-if %s: %w", sc.Name, err)
		}
		probes[k].whatIf = time.Since(t0)
		doc, err := json.Marshal(rep)
		if err != nil {
			return nil, err
		}
		if probes[k].view, err = viewOf(doc); err != nil {
			return nil, err
		}
	}
	if !e.traced {
		return probes, nil
	}
	study, err := ref.Study()
	if err != nil {
		return nil, err
	}
	base, err := timeConverge(e, study)
	if err != nil {
		return nil, err
	}
	for k, sc := range scs {
		pr := timeEngine(base, sc)
		pr.view, pr.whatIf = probes[k].view, probes[k].whatIf
		probes[k] = pr
	}
	return probes, nil
}

// timeConverge builds a base engine the way the session does and
// reports the full convergence it costs.
func timeConverge(e *env, study *policyscope.Study) (*simulate.Engine, error) {
	t0 := time.Now()
	base, err := study.WhatIfEngine()
	if err != nil {
		return nil, err
	}
	e.res.Timing("engine.converge_ms", "ms", Dist{ms(time.Since(t0))}, 0)
	return base, nil
}

// timeEngine clones base, applies sc under a checkpoint and restores
// it: by Rollback, or by a fresh clone when Rollback refuses.
func timeEngine(base *simulate.Engine, sc simulate.Scenario) probe {
	var pr probe
	t0 := time.Now()
	eng := base.Clone()
	t1 := time.Now()
	eng.Checkpoint()
	_, _ = eng.Apply(sc)
	t2 := time.Now()
	if !eng.Rollback() {
		pr.refused = true
		_ = base.Clone()
	}
	t3 := time.Now()
	pr.clone, pr.apply, pr.rollback = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	return pr
}

// reportEngineProbes prints clone, apply and rollback per family.
func reportEngineProbes(e *env, scs []simulate.Scenario, probes []probe) {
	var clones Dist
	apply := map[string]Dist{}
	restore := map[string]Dist{}
	refused := map[string]int{}
	for k, pr := range probes {
		f := family(scs[k])
		clones = append(clones, ms(pr.clone))
		apply[f] = append(apply[f], ms(pr.apply))
		restore[f] = append(restore[f], ms(pr.rollback))
		if pr.refused {
			refused[f]++
		}
	}
	e.res.Timing("engine.clone_ms", "ms", clones, 0)
	for _, f := range families {
		if len(apply[f]) == 0 {
			continue
		}
		e.res.Timing("engine.apply_ms."+f, "ms", apply[f], 0)
		e.res.Timing("engine.rollback_ms."+f, "ms", restore[f], 0)
		if refused[f] > 0 {
			e.res.Printf("note engine.rollback_ms.%s: Rollback refused %d of %d, restore timed as refusal + re-clone", f, refused[f], len(restore[f]))
		}
	}
}

// checkReplies fails every non-200 reply, every what-if whose reach
// deltas or per-peer best changes differ from the reference session,
// and every /run body that differs from the first one for its table.
func checkReplies(e *env, replies []reply, probes []probe) {
	e.res.Ops(len(replies), 0)
	firstRun := map[string][]byte{}
	for _, rp := range replies {
		switch {
		case rp.timing.Err != nil:
			e.res.Fail("request %d: %v", rp.timing.Index, rp.timing.Err)
		case rp.status != http.StatusOK:
			e.res.Fail("request %d: status %d: %s", rp.timing.Index, rp.status, strings.TrimSpace(string(rp.body)))
		case rp.req.whatIf >= 0:
			got, err := viewOf(rp.body)
			if err != nil || !reflect.DeepEqual(got, probes[rp.req.whatIf].view) {
				e.res.Fail("what-if %s: served report differs from Session.WhatIf on an independent session", rp.req.scenario.Name)
			}
		default:
			if first, ok := firstRun[rp.req.table]; !ok {
				firstRun[rp.req.table] = rp.body
			} else if !bytes.Equal(first, rp.body) {
				e.res.Fail("/run/%s: body differs from the first one", rp.req.table)
			}
		}
	}
}

// reportServeLayers builds each traced request's span tree, prints the
// per-layer self times and the HTTP and session figures.
func reportServeLayers(e *env, scs []simulate.Scenario, replies []reply, probes []probe, trWhat, untrWhat Dist) {
	var whatIfMs, reportMs Dist
	for _, pr := range probes {
		whatIfMs = append(whatIfMs, ms(pr.whatIf))
		reportMs = append(reportMs, ms(pr.whatIf-pr.clone-pr.apply))
	}
	e.res.Timing("session.whatif_ms", "ms", whatIfMs, 0)
	e.res.Timing("session.whatif_report_ms", "ms", reportMs, 0)
	reportEngineProbes(e, scs, probes)

	handler := map[string]Dist{}
	overhead := map[string]Dist{}
	experiment := map[string]Dist{}
	roots := map[string]int{}
	latency := map[string]Dist{}
	rec := e.rec
	for _, rp := range replies {
		if !rp.traced || rp.timing.Err != nil || rp.status != http.StatusOK {
			continue
		}
		kind := "run"
		if rp.req.whatIf >= 0 {
			kind = "whatif"
		}
		roots[kind]++
		t := rp.timing
		latency[kind] = append(latency[kind], ms(t.Latency()))
		id := fmt.Sprintf("%s-%d", kind, roots[kind])
		root := rec.Add(0, kind+".queue", id, t.Due, t.End)
		client := rec.Add(root, kind+".client", id, t.Start, t.End)
		handlerDur := time.Duration(rp.totalMs * float64(time.Millisecond))
		// The handler's offset inside the exchange is not observable
		// from the client; centring it leaves self times unchanged.
		hStart := rec.Offset(t.Start) + (t.Service()-handlerDur)/2
		if handlerDur > t.Service() {
			hStart = rec.Offset(t.Start)
		}
		h := rec.AddOffsets(client, kind+".handler", id, hStart, hStart+handlerDur)
		handler[kind] = append(handler[kind], rp.totalMs)
		overhead[kind] = append(overhead[kind], ms(t.Service())-rp.totalMs)
		for _, sp := range rp.spans {
			start := hStart + time.Duration(sp.StartMs*float64(time.Millisecond))
			end := start + time.Duration(sp.DurMs*float64(time.Millisecond))
			name := sp.Name
			if table, ok := strings.CutPrefix(name, "experiment:"); ok {
				experiment[table] = append(experiment[table], sp.DurMs)
				name = "experiment"
			} else if name == "whatif" {
				name = "report"
			}
			sid := rec.AddOffsets(h, kind+"."+name, id, start, end)
			if name == "report" {
				pr := probes[rp.req.whatIf]
				rec.AddOffsets(sid, "whatif.clone", id, start, start+pr.clone)
				rec.AddOffsets(sid, "whatif.apply", id, start+pr.clone, start+pr.clone+pr.apply)
			}
		}
	}
	for _, kind := range []string{"whatif", "run"} {
		e.res.Timing("http.handler_ms."+kind, "ms", handler[kind], 0)
		e.res.Timing("http.overhead_ms."+kind, "ms", overhead[kind], 0)
	}
	for _, t := range serveTables {
		e.res.Timing("session.run_ms."+t, "ms", experiment[t], 0)
	}
	reportSelf(e, []string{"whatif", "run"}, roots, latency)
	e.res.Printf("note self.whatif.clone_ms and self.whatif.apply_ms are the engine probe's times for the same scenario, nested under the server's whatif span; self.whatif.report_ms is the rest of that span")
	traceOverhead(e, "traced vs untraced open-loop /whatif latency", trWhat, untrWhat)
}

// reportSelf sets the mean self time per operation of every layer of
// the given kinds, and prints how the sum compares with the mean
// client-observed latency: the remainder no span covers is the root's
// own self time, printed by name.
func reportSelf(e *env, kinds []string, roots map[string]int, latency map[string]Dist) {
	self := SelfByName(e.rec.Spans())
	for _, kind := range kinds {
		n := roots[kind]
		if n == 0 {
			continue
		}
		sum := 0.0
		for _, l := range selfLayers[kind] {
			v := self[kind+"."+l] / float64(n)
			sum += v
			e.res.Set("self."+kind+"."+l+"_ms", v)
			e.res.Printf("self %s.%s_ms=%s ms per operation (n=%d)", kind, l, num(v), n)
		}
		e.res.Printf("self %s: layers sum to %s ms; mean observed latency %s ms (n=%d)", kind, num(sum), num(latency[kind].Mean()), n)
	}
}

// traceOverhead reports the traced half against the untraced half.
func traceOverhead(e *env, what string, traced, untraced Dist) {
	pct := (traced.Median() - untraced.Median()) / untraced.Median() * 100
	e.res.Set("trace.overhead_pct", pct)
	e.res.Printf("ratio trace.overhead_pct %s %% = (%s ms traced, n=%d - %s ms untraced, n=%d) / untraced; %s",
		num(pct), num(traced.Median()), len(traced), num(untraced.Median()), len(untraced), what)
}
