package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

// BENCHMARK.json, at the repository root, must list exactly the
// workloads and metrics this program runs and reports.
func TestBenchmarkJSONMatchesSchema(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for w := range workloads {
		want = append(want, w)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	check := func(field string, got []struct{ Name, Unit, Better string }, defs []metricDef) {
		t.Helper()
		g := make([]metricDef, len(got))
		for i, m := range got {
			g[i] = metricDef(m)
		}
		if !reflect.DeepEqual(g, defs) {
			type entry struct {
				Name   string `json:"name"`
				Unit   string `json:"unit"`
				Better string `json:"better"`
			}
			exp := make([]entry, len(defs))
			for i, d := range defs {
				exp[i] = entry(d)
			}
			b, _ := json.Marshal(exp)
			t.Errorf("BENCHMARK.json %s differs from the program's schema; want %s", field, b)
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}
