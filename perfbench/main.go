// Command perfbench is pathdb's layered benchmark. One invocation runs one
// workload (or, with --workload all, each in turn) closed-loop for a fixed
// wall time and prints its end-to-end metrics (--trace 0) or its per-layer
// metrics (--trace 1), checking every read against an oracle count. Run it
// through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload paper-cold --seed 42 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// The lines before it print the same metrics for people, with the sample
// count behind each percentile. A count mismatch or failed request makes
// the exit code non-zero. WORKLOADS.md describes the workloads and
// metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"pathdb"
)

// The benchmark's scale. Every run uses these; only the in-package smoke
// test shrinks them, by building its own config.
const (
	scaleFactor  = 1
	entityScale  = 0.1
	setups       = 5    // set-ups timed for setup_s (median)
	probeCommits = 1024 // commits of the write probe on read-only workloads
)

// config is one invocation's settings.
type config struct {
	workload workload
	seed     uint64
	seconds  float64
	trace    bool
	traceDir string

	sf, entityScale float64
	setups          int
	probeCommits    int
}

// parseFlags returns the settings and the workloads to run.
func parseFlags(args []string, stderr io.Writer) (config, []workload, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-cold, branch-warm, rw-warm, rw-shard4-http, or all")
	seed := fs.Uint64("seed", 42, "XMark document seed")
	seconds := fs.Float64("seconds", 10, "measured wall time of the run")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	traceDir := fs.String("trace-dir", ".bench_build/traces", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return config{}, nil, err
	}
	ws := workloads
	if *name != "all" {
		w, err := lookupWorkload(*name)
		if err != nil {
			return config{}, nil, err
		}
		ws = []workload{w}
	}
	if *trace != 0 && *trace != 1 {
		return config{}, nil, fmt.Errorf("--trace must be 0 or 1")
	}
	if *seconds <= 0 {
		return config{}, nil, errors.New("--seconds must be positive")
	}
	return config{
		seed: *seed, seconds: *seconds, trace: *trace == 1, traceDir: *traceDir,
		sf: scaleFactor, entityScale: entityScale, setups: setups, probeCommits: probeCommits,
	}, ws, nil
}

func (c config) xmark() pathdb.XMarkConfig {
	return pathdb.XMarkConfig{ScaleFactor: c.sf, Seed: c.seed, EntityScale: c.entityScale}
}

func (c config) dur() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	reps, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, rep := range reps {
		if !rep.Correct {
			os.Exit(2)
		}
	}
}

// run executes one invocation: each workload it names in turn, printing
// the human-readable lines and the JSON result of each to stdout. An error
// means the failing workload printed no result.
func run(args []string, stdout, stderr io.Writer) ([]*report, error) {
	cfg, ws, err := parseFlags(args, stderr)
	if err != nil {
		return nil, err
	}
	var reps []*report
	for _, w := range ws {
		if len(ws) > 1 {
			fmt.Fprintf(stdout, "== %s\n", w.name)
		}
		cfg.workload = w
		rep, err := runWorkload(cfg, stdout)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		reps = append(reps, rep)
	}
	return reps, nil
}

// runWorkload runs cfg.workload once.
func runWorkload(cfg config, stdout io.Writer) (*report, error) {
	expect, err := oracle(cfg.xmark(), cfg.workload.paths())
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	for _, p := range cfg.workload.paths() {
		fmt.Fprintf(stdout, "oracle: count(%s) = %d\n", p, expect[p])
	}

	tgt, setupS, err := setUp(cfg)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer tgt.close()
	fmt.Fprintf(stdout, "%s; %d closed-loop clients, GOMAXPROCS %d; seed %d\n",
		tgt.describe(), cfg.workload.clients, runtime.GOMAXPROCS(0), cfg.seed)

	ctx := context.Background()
	if cfg.workload.warm {
		// Discarded: fills the buffer pool, the decoded-cluster and derived
		// caches and the chooser, and lets the Go heap reach its size.
		res := runLoop(ctx, tgt, newSchedule(cfg.workload, cfg.seed), time.Second, 0, expect, nil)
		if res.firstErr != nil {
			return nil, fmt.Errorf("warm-up: %w", res.firstErr)
		}
	}

	var rep *report
	if cfg.trace {
		rep, err = traced(ctx, cfg, tgt, expect, stdout)
	} else {
		rep, err = untraced(ctx, cfg, tgt, expect, setupS, stdout)
	}
	if err != nil {
		return nil, err
	}
	bad := recheck(ctx, cfg, tgt, expect)
	rep.Attempted += len(cfg.workload.paths())
	if bad > 0 {
		rep.Failed += bad
		rep.Correct = false
		fmt.Fprintf(stdout, "oracle re-check after the run: %d paths differ\n", bad)
	}
	printReport(stdout, rep)
	return rep, nil
}

// oracle computes every mix path's count on a fresh single-volume copy of
// the document with the paper's baseline evaluators: Simple navigation and
// nested (per-candidate) predicates.
func oracle(x pathdb.XMarkConfig, paths []string) (map[string]int, error) {
	db, err := pathdb.GenerateXMark(x, pathdb.Options{})
	if err != nil {
		return nil, err
	}
	out := map[string]int{}
	for _, p := range paths {
		res, err := db.QueryCtx(context.Background(), p, pathdb.QueryOptions{Strategy: pathdb.Simple, PredEval: pathdb.PredNested})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out[p] = res.Count()
	}
	return out, nil
}

// setUp builds the workload's system cfg.setups times — generate, import,
// start the engine or the cluster and its HTTP server — keeping the last
// and reporting the median wall time.
func setUp(cfg config) (target, float64, error) {
	var times []float64
	var tgt target
	for k := 0; k < cfg.setups; k++ {
		if tgt != nil {
			tgt.close()
		}
		// Each set-up starts on a collected heap, so none pays for the
		// garbage of the oracle or of the set-up before it.
		runtime.GC()
		t0 := time.Now()
		var err error
		if cfg.workload.shards > 0 {
			tgt, err = newHTTPTarget(cfg.xmark(), cfg.workload.shards, cfg.workload.clients)
		} else {
			tgt, err = newEngineTarget(cfg.xmark(), cfg.workload.frames)
		}
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return tgt, median(times), nil
}

// recheck reads every mix path once more after the run.
func recheck(ctx context.Context, cfg config, tgt target, expect map[string]int) int {
	bad := 0
	for _, p := range cfg.workload.paths() {
		s, err := tgt.read(ctx, p, nil, -1)
		if err != nil || s.count != expect[p] {
			bad++
		}
	}
	return bad
}

func printReport(w io.Writer, rep *report) {
	fmt.Fprintf(w, "requests: attempted %d, failed %d (failed_frac %.6f)\n",
		rep.Attempted, rep.Failed, float64(rep.Failed)/float64(max(rep.Attempted, 1)))
	for _, name := range sortedNames(rep.Metrics) {
		m := rep.Metrics[name]
		fmt.Fprintf(w, "%s = %.6g %s\n", name, m.Value, m.Unit)
	}
	b, _ := json.Marshal(rep) // a map of plain structs always marshals
	fmt.Fprintln(w, string(b))
}
