package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"

	policyscope "github.com/policyscope/policyscope"
	"github.com/policyscope/policyscope/dataset"
)

// workDir holds everything a run writes (cache stores, CPU profiles),
// relative to the directory the benchmark runs from.
const workDir = ".bench_build/perfbench"

// setupRepeats is how many times the non-cold workloads set up; setup_s
// is the median.
const setupRepeats = 3

// runBudget bounds one run end to end, well inside the 180 s a run may
// take.
const runBudget = 150 * time.Second

// env is what every workload receives.
type env struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	nproc    int
	cfg      policyscope.Config
	res      *Result
	rec      *Recorder // nil when untraced
	identity map[string]any
}

var workloads = map[string]func(context.Context, *env) error{
	"serve-paper":     runServe,
	"sweep-mixed":     runSweep,
	"dsweep-loopback": runDSweep,
	"cold-repro":      runCold,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: serve-paper, sweep-mixed, dsweep-loopback or cold-repro")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer mode")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload in {serve-paper, sweep-mixed, dsweep-loopback, cold-repro}, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	// The program's own structured logs would interleave with the
	// report; only warnings and errors get through.
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})))
	cfg, err := paperConfig()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	e := &env{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		nproc:    runtime.NumCPU(),
		cfg:      cfg,
		res:      newResult(stdout),
	}
	if e.traced {
		e.rec = NewRecorder()
	}
	e.identity = identity(e)

	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	var stopTraceFiles func() error
	if e.traced {
		stopTraceFiles, err = startTraceFiles(e)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	steal0 := stealTicks()
	runErr := fn(ctx, e)
	e.identity["host_steal_ticks"] = stealTicks() - steal0
	if stopTraceFiles != nil {
		if err := stopTraceFiles(); err != nil && runErr == nil {
			runErr = err
		}
	}
	if runErr != nil {
		e.res.Fail("%s: %v", e.workload, runErr)
	}
	id, _ := json.Marshal(map[string]any{"identity": e.identity})
	e.res.Printf("%s", id)
	if !e.res.Finish(e.traced) {
		return 1
	}
	return 0
}

// identity records what the numbers were measured on and with.
func identity(e *env) map[string]any {
	rev, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	return map[string]any{
		"workload":     e.workload,
		"traced":       e.traced,
		"seed":         e.seed,
		"seconds":      e.seconds.Seconds(),
		"nproc":        e.nproc,
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go":           runtime.Version(),
		"vcs_revision": rev,
		"vcs_modified": modified,
		"dataset":      fmt.Sprintf("paper preset, %d ASes, %d collector peers, dataset seed %d", e.cfg.NumASes, e.cfg.CollectorPeers, e.cfg.Seed),
		"fingerprint":  dataset.Fingerprint(dataset.NewSynthetic(e.cfg).Spec()),
	}
}

// startTraceFiles writes one CPU profile per traced run; the returned
// function stops it and writes the run's spans beside it.
func startTraceFiles(e *env) (func() error, error) {
	dir := filepath.Join(workDir, "profiles")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", e.workload, e.seed))
	f, err := os.Create(base + ".pprof")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	e.identity["cpu_profile"] = base + ".pprof"
	e.identity["spans"] = base + ".spans.ndjson"
	return func() error {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return err
		}
		sf, err := os.Create(base + ".spans.ndjson")
		if err != nil {
			return err
		}
		if err := e.rec.WriteNDJSON(sf); err != nil {
			sf.Close()
			return err
		}
		return sf.Close()
	}, nil
}

// catalog returns a catalog holding only the workload's dataset as its
// default, optionally behind the on-disk study cache at cacheDir.
func (e *env) catalog(cacheDir string) (*dataset.Catalog, error) {
	cat := dataset.NewCatalog()
	if err := cat.Register("paper", dataset.NewSynthetic(e.cfg)); err != nil {
		return nil, err
	}
	if cacheDir != "" {
		cat.EnableCache(cacheDir)
	}
	return cat, nil
}

// coldSession builds a fresh pool over an uncached catalog and resolves
// and warms its default session, timing the load and the warm-up.
func (e *env) coldSession(ctx context.Context) (*dataset.Pool, *policyscope.Session, time.Duration, time.Duration, error) {
	cat, err := e.catalog("")
	if err != nil {
		return nil, nil, 0, 0, err
	}
	pool := dataset.NewPool(cat, 1)
	t0 := time.Now()
	sess, err := pool.Session(ctx, "")
	if err != nil {
		return nil, nil, 0, 0, fmt.Errorf("cold load: %w", err)
	}
	t1 := time.Now()
	if err := sess.Warm(); err != nil {
		return nil, nil, 0, 0, fmt.Errorf("warm: %w", err)
	}
	return pool, sess, t1.Sub(t0), time.Since(t1), nil
}

// heapMB is the live heap after a forced collection, in MB: allocated
// objects only, so span fragmentation left by set-up does not count.
func heapMB() float64 {
	// Two cycles: the first leaves sync.Pool contents in the victim
	// cache, the second frees them.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
