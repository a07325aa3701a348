// Command perfbench is policyscope's end-to-end and per-layer
// benchmark. It drives the program only through its public functions —
// dataset.Pool, policyscope.Session, server.New on a real loopback
// listener, sweep, dsweep and simulate.Engine — on paper-shaped inputs
// generated from the workload seed: the built-in "paper" preset (600
// ASes, 24 collector peers) with its Seed replaced.
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// run.sh builds the command from the surrounding source tree and runs it
// from the repository root; builds, caches and CPU profiles stay under
// .bench_build/. The load comes from this one process, with at most
// nproc client goroutines and connections.
//
// # Workloads
//
//   - serve-paper: a seeded mix of POST /whatif (~70%; single-link
//     failures, provider de-peerings, prefix withdrawals) and POST
//     /run/{table2,table5,table7} (~30%) against server.New over a pool.
//     An open-loop phase at a fixed rate times each request from its due
//     time; a closed-loop phase with nproc clients measures capacity.
//   - sweep-mixed: Session.Sweep with nproc workers over a seeded, capped
//     spec of five generated families (single-link failures, prefix
//     withdrawals, hijacks, local-pref flips, no-upstream flips) plus
//     explicit announcements of fresh prefixes, the one family that
//     restores through inverse events, so journal, inverse and re-clone
//     restores all run.
//   - dsweep-loopback: the same spec through dsweep.Run against two
//     in-process server.New workers on loopback sharing one pool.
//   - cold-repro: per iteration, a cold Pool.Session plus Warm on a fresh
//     cache directory; a second pool on that directory, its cache-hit
//     load and first Session.WhatIf; and RunAllJSON, alternating between
//     the cold and the cache-hit session.
//
// # End-to-end metrics (--trace 0)
//
// Every workload reports the same five metrics, each for the operation
// its user waits on:
//
//	setup_s     cold dataset build + Warm until the first timed operation can start:
//	            three set-ups per run, or every cold-repro iteration
//	heap_mb     live heap after forced collections at the end of set-up
//	main_ms     serve-paper: /whatif p50, open loop, from the due time
//	            sweep-mixed, dsweep-loopback: one sweep (expand + run), p50
//	            cold-repro: RunAllJSON p50 (repro_s)
//	aux_ms      serve-paper: mean of the per-table /run p50s, open loop
//	            sweep-mixed, dsweep-loopback: time until 16 records (one shard) streamed, p50
//	            cold-repro: cache-hit load + first what-if, p50 (hit_first_whatif_ms)
//	rate_per_s  serve-paper: closed-loop replies per second (serve_rps)
//	            sweep-mixed, dsweep-loopback: scenarios per second
//	            cold-repro: cold-start iterations per second
//
// On a shared machine the hypervisor gives this machine's CPUs to other
// guests in spells, and every timing caught in one stretches. The
// timings behind these metrics therefore keep only the operations that
// saw no host steal (from /proc/stat), or the quarter that saw the least
// when fewer did; where the machine reports no steal, everything is
// kept. The report prints the unfiltered figures beside them as *.all,
// and the identity line the run's total steal.
//
// The report lines above the result also print the figures under their
// own names — whatif_p50_ms, whatif_p90_ms, run_p50_ms, run_p90_ms,
// serve_rps, sweep_scen_per_s, dsweep_scen_per_s, repro_s,
// hit_first_whatif_ms, fail_frac — each with its unit, sample count,
// median and the highest percentile with at least ten samples beyond
// it. Failed, refused (429) and wrong operations count against the
// operations attempted, and any of them makes the command exit 1.
//
// # Per-layer metrics (--trace 1)
//
// The traced mode runs the same workload on the same seed and reports
// every layer: timings of calls into each layer's public functions
// from outside, the program's own obs.Default counters read with
// obs.ParseText before and after the run, and self times from
// benchmark-side spans kept in memory until the run ends. Server spans
// returned by ?trace=1 nest under the client span that carried them.
// Every ratio is printed with its base. A layer the workload bypasses
// reports 0. Half of the operations run traced and half untraced, and
// trace.overhead_pct compares the two. Each traced run writes a CPU
// profile under .bench_build/perfbench/profiles.
//
// The last line of standard output is the result object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"<name>":{"value":v,"unit":"u"},...}}
package main
