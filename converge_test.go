package policyscope

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"github.com/policyscope/policyscope/internal/routeviews"
	"github.com/policyscope/policyscope/obs"
)

// convergeRuns reads the engine's full-convergence pass counter.
func convergeRuns() uint64 {
	return obs.NewCounter("policyscope_converge_runs_total", "").Value()
}

// TestSessionConvergesOnce: one dataset, one convergence. A cold Warm
// converges exactly once, and neither the persistence series nor a
// link-failure what-if converges again — both run on clones of the
// study's engine.
func TestSessionConvergesOnce(t *testing.T) {
	ctx := context.Background()
	se := smallSession(t)
	before := convergeRuns()
	if err := se.Warm(); err != nil {
		t.Fatal(err)
	}
	if got := convergeRuns() - before; got != 1 {
		t.Fatalf("cold Warm ran %d convergence passes, want 1", got)
	}

	before = convergeRuns()
	if _, err := se.RunJSON(ctx, "figure6", []byte(`{"epochs": 6}`)); err != nil {
		t.Fatal(err)
	}
	if got := convergeRuns() - before; got != 0 {
		t.Fatalf("6-epoch figure6 ran %d convergence passes, want 0", got)
	}

	s, err := se.Study()
	if err != nil {
		t.Fatal(err)
	}
	sc, _, _, ok := s.FailoverScenario()
	if !ok {
		t.Fatal("no failover subject")
	}
	before = convergeRuns()
	if _, err := se.WhatIf(ctx, sc); err != nil {
		t.Fatal(err)
	}
	if got := convergeRuns() - before; got != 0 {
		t.Fatalf("failover what-if ran %d convergence passes, want 0", got)
	}
}

// TestBaseEngineAliasingGuard: Study.Result and Study.Topo are views of
// the base engine that every what-if, sweep and persistence series
// clones. Running all of them, concurrently, on one session must leave
// the study's tables, graph and policies byte-for-byte unchanged, and
// the session must keep answering what-ifs like a fresh one.
func TestBaseEngineAliasingGuard(t *testing.T) {
	ctx := context.Background()
	se := smallSession(t)
	s, err := se.Study()
	if err != nil {
		t.Fatal(err)
	}
	fingerprint := func() (mrt, graph, policies []byte) {
		t.Helper()
		snap, err := routeviews.Collect(s.Result, s.Peers, 0)
		if err != nil {
			t.Fatal(err)
		}
		var m, g, p bytes.Buffer
		if err := snap.WriteMRT(&m); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Topo.Graph.WriteTo(&g); err != nil {
			t.Fatal(err)
		}
		for _, asn := range s.Topo.Order {
			if pol := s.Topo.Policies[asn]; pol != nil {
				fmt.Fprintln(&p, asn, pol.Export.OriginProviders, pol.Export.NoUpstream)
			}
		}
		return m.Bytes(), g.Bytes(), p.Bytes()
	}
	mrt0, graph0, pol0 := fingerprint()
	sc, _, _, ok := s.FailoverScenario()
	if !ok {
		t.Fatal("no failover subject")
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	run := func(f func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := f(); err != nil {
				errs <- err
			}
		}()
	}
	run(func() error {
		_, err := se.RunAllJSON(ctx, RunAllOptions{
			TierOneProviders: 3, Table6Rows: 8, Table6MinPrefixes: 2,
			DailyEpochs: 3, HourlyEpochs: 2, Routers: 6, DriftRouters: 1, Figure9ASes: 2,
		})
		return err
	})
	for i := 0; i < 4; i++ {
		run(func() error {
			_, err := se.WhatIf(ctx, sc)
			return err
		})
	}
	run(func() error {
		eng, err := s.WhatIfEngine()
		if err != nil {
			return err
		}
		_, err = eng.Apply(sc)
		return err
	})
	run(func() error {
		_, err := se.RunJSON(ctx, "sweep",
			[]byte(`{"spec": {"generators": [{"kind": "all_single_link_failures", "max": 6}]}, "workers": 2}`))
		return err
	})
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	mrt1, graph1, pol1 := fingerprint()
	if !bytes.Equal(mrt0, mrt1) {
		t.Error("collector MRT of Study.Result changed")
	}
	if !bytes.Equal(graph0, graph1) {
		t.Error("Study.Topo graph changed")
	}
	if !bytes.Equal(pol0, pol1) {
		t.Error("Study.Topo export policies changed")
	}
	used, err := se.WhatIf(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewSession(se.Config()).WhatIf(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(used)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("what-if on the used session diverged from a fresh session:\n%s\nvs\n%s", a, b)
	}
}
