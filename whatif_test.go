package policyscope

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"github.com/policyscope/policyscope/internal/simulate"
)

func TestStudyWhatIfFailover(t *testing.T) {
	s := smallStudy(t)
	sc, stub, provider, ok := s.FailoverScenario()
	if !ok {
		t.Fatal("no failover scenario available")
	}
	if stub == 0 || provider == 0 {
		t.Fatalf("bad endpoints %v %v", stub, provider)
	}
	rep, err := NewSessionFromStudy(s).WhatIf(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delta.Recomputed == 0 {
		t.Fatal("failover recomputed nothing")
	}
	if rep.Delta.Recomputed >= rep.Delta.TotalPrefixes {
		t.Fatalf("failover recomputed everything (%d/%d): incrementality lost",
			rep.Delta.Recomputed, rep.Delta.TotalPrefixes)
	}
	if len(rep.Delta.Shifts) == 0 {
		t.Fatal("no catchment shifts for a multihomed stub failover")
	}
	// The study itself must stay on the base configuration.
	if s.Topo.Graph.Rel(stub, provider) == 0 {
		t.Fatal("what-if mutated the study topology")
	}

	var buf bytes.Buffer
	if err := WriteWhatIf(&buf, rep, 5); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"What-if", "re-converged", "Prefix", "Collector peers"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// TestStudyWhatIfEngineChained compounds a link failure and its
// restoration on one WhatIfEngine, checks both states against fresh
// full simulations, and checks that the study's own Result — a view of
// the base engine the what-if engine was cloned from — never moves.
func TestStudyWhatIfEngineChained(t *testing.T) {
	s := smallStudy(t)
	eng, err := s.WhatIfEngine()
	if err != nil {
		t.Fatal(err)
	}
	sc, stub, provider, ok := s.FailoverScenario()
	if !ok {
		t.Skip("no failover subject")
	}
	opts := simulate.Options{VantagePoints: s.Peers}
	base, err := simulate.Run(s.Topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Apply(sc); err != nil {
		t.Fatal(err)
	}
	failed := s.Topo.Clone()
	if err := sc.ApplyToTopology(failed); err != nil {
		t.Fatal(err)
	}
	want, err := simulate.Run(failed, opts)
	if err != nil {
		t.Fatal(err)
	}
	if diffs := simulate.DiffResults(eng.Result(), want); len(diffs) > 0 {
		t.Fatalf("failover diverges from a full run: %v", diffs[:min(3, len(diffs))])
	}
	if diffs := simulate.DiffResults(s.Result, base); len(diffs) > 0 {
		t.Fatalf("what-if engine mutated the study's Result: %v", diffs[:min(3, len(diffs))])
	}
	// Chain a second event on the compounded state: restore the link.
	rel := s.Topo.Graph.Rel(stub, provider)
	restore := simulate.Scenario{Events: []simulate.Event{simulate.RestoreLink(stub, provider, rel)}}
	delta, err := eng.Apply(restore)
	if err != nil {
		t.Fatal(err)
	}
	if delta.Recomputed == 0 {
		t.Fatal("restore recomputed nothing")
	}
	if diffs := simulate.DiffResults(eng.Result(), base); len(diffs) > 0 {
		t.Fatalf("fail+restore did not round-trip: %v", diffs[:min(3, len(diffs))])
	}
	if diffs := simulate.DiffResults(s.Result, base); len(diffs) > 0 {
		t.Fatalf("what-if engine mutated the study's Result: %v", diffs[:min(3, len(diffs))])
	}
}
