package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// metricDef names one reported metric, its unit and which direction is
// better. The two tables below are the benchmark's schema;
// BENCHMARK.json lists the same metrics (schema_test.go holds the two in
// step).
type metricDef struct{ Name, Unit, Better string }

// higherIsBetter lists the per-layer metrics where more is better; for
// every other metric less is.
var higherIsBetter = map[string]bool{
	"rate_per_s":             true,
	"dataset.hit_speedup_x":  true,
	"dataset.pool_hits":      true,
	"session.memo_hits":      true,
	"sweep.busy_frac":        true,
	"sweep.restores_journal": true,
	"dsweep.vs_local_x":      true,
}

// endToEnd are the untraced metrics every workload reports. Each
// workload fills main/aux/rate with its own user-facing operation (see
// the package documentation for the mapping).
var endToEnd = withBetter([]metricDef{
	{Name: "setup_s", Unit: "s"},
	{Name: "heap_mb", Unit: "MB"},
	{Name: "main_ms", Unit: "ms"},
	{Name: "aux_ms", Unit: "ms"},
	{Name: "rate_per_s", Unit: "1/s"},
})

func withBetter(defs []metricDef) []metricDef {
	for i := range defs {
		defs[i].Better = "lower"
		if higherIsBetter[defs[i].Name] {
			defs[i].Better = "higher"
		}
	}
	return defs
}

// families are the scenario families, named by their events (a
// provider de-peering is a link failure).
var families = []string{"link_fail", "withdraw", "hijack", "local_pref", "no_upstream", "announce"}

// runAllExperiments are the experiments RunAllJSON invokes at the
// default options; any other name is summed under "other".
var runAllExperiments = []string{
	"overview", "table1", "table2", "table3", "figure2a", "figure2b", "table4",
	"table5", "table6", "table7", "table8", "table9", "case3", "table10",
	"atoms", "decision", "multisite", "table11", "figure9", "figure6",
	"figure7", "whatif", "inferbakeoff", "summary",
}

// selfLayers are the span names whose self time the traced run
// reports, per operation kind.
var selfLayers = map[string][]string{
	"whatif": {"queue", "client", "handler", "dataset_load", "warm", "report", "clone", "apply"},
	"run":    {"queue", "client", "handler", "dataset_load", "experiment", "render"},
	"sweep":  {"expand", "executor", "other"},
	"dsweep": {"expand", "coordinator", "transport", "worker"},
	"cold":   {"cold_load", "warm", "hit_load", "first_whatif", "run_all", "other"},
}

var selfKinds = []string{"whatif", "run", "sweep", "dsweep", "cold"}

// perLayer is built once from the lists above.
var perLayer = withBetter(buildPerLayer())

func buildPerLayer() []metricDef {
	d := []metricDef{
		{Name: "dataset.cold_load_ms", Unit: "ms"},
		{Name: "dataset.hit_load_ms", Unit: "ms"},
		{Name: "dataset.hit_speedup_x", Unit: "x"},
		{Name: "dataset.pool_hits", Unit: "count"},
		{Name: "dataset.pool_misses", Unit: "count"},
		{Name: "session.warm_ms", Unit: "ms"},
		{Name: "session.whatif_ms", Unit: "ms"},
		{Name: "session.whatif_report_ms", Unit: "ms"},
		{Name: "session.memo_hits", Unit: "count"},
		{Name: "session.memo_misses", Unit: "count"},
	}
	for _, e := range append(append([]string(nil), runAllExperiments...), "other") {
		d = append(d, metricDef{Name: "session.run_ms." + e, Unit: "ms"})
	}
	d = append(d,
		metricDef{Name: "engine.converge_ms", Unit: "ms"},
		metricDef{Name: "engine.clone_ms", Unit: "ms"},
	)
	for _, f := range families {
		d = append(d, metricDef{Name: "engine.apply_ms." + f, Unit: "ms"})
	}
	for _, f := range families {
		d = append(d, metricDef{Name: "engine.rollback_ms." + f, Unit: "ms"})
	}
	d = append(d,
		metricDef{Name: "engine.activations", Unit: "count"},
		metricDef{Name: "engine.rollbacks_unsupported", Unit: "count"},
		metricDef{Name: "sweep.expand_ms", Unit: "ms"},
	)
	for _, f := range families {
		d = append(d, metricDef{Name: "sweep.scen_ms." + f, Unit: "ms"})
	}
	d = append(d,
		metricDef{Name: "sweep.busy_frac", Unit: "fraction"},
		metricDef{Name: "sweep.reclone_frac", Unit: "fraction"},
		metricDef{Name: "sweep.restores_journal", Unit: "count"},
		metricDef{Name: "sweep.restores_inverse", Unit: "count"},
		metricDef{Name: "sweep.restores_reclone", Unit: "count"},
		metricDef{Name: "dsweep.shard_rtt_p50_ms", Unit: "ms"},
		metricDef{Name: "dsweep.shard_rtt_p90_ms", Unit: "ms"},
		metricDef{Name: "dsweep.worker_shard_ms", Unit: "ms"},
		metricDef{Name: "dsweep.retries", Unit: "count"},
		metricDef{Name: "dsweep.reassigned", Unit: "count"},
		metricDef{Name: "dsweep.speculated", Unit: "count"},
		metricDef{Name: "dsweep.vs_local_x", Unit: "x"},
		metricDef{Name: "http.handler_ms.whatif", Unit: "ms"},
		metricDef{Name: "http.handler_ms.run", Unit: "ms"},
		metricDef{Name: "http.overhead_ms.whatif", Unit: "ms"},
		metricDef{Name: "http.overhead_ms.run", Unit: "ms"},
		metricDef{Name: "http.shed", Unit: "count"},
		metricDef{Name: "http.5xx", Unit: "count"},
		metricDef{Name: "gen.late_p50_ms", Unit: "ms"},
		metricDef{Name: "gen.late_max_ms", Unit: "ms"},
		metricDef{Name: "trace.overhead_pct", Unit: "%"},
	)
	for _, k := range selfKinds {
		for _, l := range selfLayers[k] {
			d = append(d, metricDef{Name: "self." + k + "." + l + "_ms", Unit: "ms"})
		}
	}
	return d
}

// Result collects one run's outcome: the metric values, the
// operations attempted and failed, and the human-readable report lines
// printed ahead of the result object.
type Result struct {
	out       io.Writer
	values    map[string]float64
	attempted int
	failed    int
	problems  []string
}

func newResult(out io.Writer) *Result {
	return &Result{out: out, values: make(map[string]float64)}
}

// Set records a metric value.
func (r *Result) Set(name string, v float64) { r.values[name] = v }

// Timing records a distribution's median under name and prints the
// named timing with its unit, sample count, median and tail.
func (r *Result) Timing(name, unit string, d Dist, want float64) {
	r.Set(name, d.Median())
	r.Printf("timing %s unit=%s %s", name, unit, describe(d, want))
}

// Count records and prints a count with the base it is a share of.
func (r *Result) Count(name string, v float64, base string) {
	r.Set(name, v)
	r.Printf("count %s=%s of %s", name, num(v), base)
}

// Ratio records and prints a ratio with both operands.
func (r *Result) Ratio(name string, q Ratio) {
	r.Set(name, q.Value())
	r.Printf("ratio %s %s", name, q)
}

// Printf writes one report line.
func (r *Result) Printf(format string, args ...any) {
	fmt.Fprintf(r.out, format+"\n", args...)
}

// Ops adds timed operations and how many of them failed.
func (r *Result) Ops(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

// Fail records a wrong answer or broken invariant: one failed
// operation, and a reason printed at the end.
func (r *Result) Fail(format string, args ...any) { r.FailN(1, format, args...) }

// FailN records n failed operations that share one reason.
func (r *Result) FailN(n int, format string, args ...any) {
	r.failed += n
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// Check fails the run with the message when ok is false, counting one
// attempted comparison either way.
func (r *Result) Check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.Fail(format, args...)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Finish prints the problems and the result object as the last line,
// and reports whether the run is correct. Untraced runs report the
// end-to-end schema, traced runs the per-layer one; a per-layer metric
// of a layer the workload bypasses is 0, while a missing or non-finite
// end-to-end metric fails the run.
func (r *Result) Finish(traced bool) bool {
	defs, strict := endToEnd, true
	if traced {
		defs, strict = perLayer, false
	}
	metrics := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			ok = false
		}
		switch {
		case ok:
			metrics[d.Name] = metricValue{v, d.Unit}
		case strict:
			r.Fail("end-to-end metric %s was not measured", d.Name)
		default:
			metrics[d.Name] = metricValue{0, d.Unit}
		}
	}
	if r.attempted == 0 {
		r.Fail("no operation was attempted")
		r.attempted = 1
	}
	r.Printf("count fail_frac=%s = %d failed / %d attempted", num(float64(r.failed)/float64(r.attempted)), r.failed, r.attempted)
	sort.Strings(r.problems)
	for _, p := range r.problems {
		r.Printf("FAIL %s", p)
	}
	correct := len(r.problems) == 0 && r.failed == 0
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{correct, r.attempted, r.failed, metrics})
	if err != nil {
		r.Printf("FAIL encoding result: %v", err)
		return false
	}
	fmt.Fprintln(r.out, strings.TrimSpace(string(line)))
	return correct
}
