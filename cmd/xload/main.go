// Command xload is a closed-loop load generator for the concurrent query
// engine: N client goroutines each submit queries back-to-back and the tool
// reports throughput and latency percentiles in both clocks — virtual (the
// calibrated disk/CPU model, machine independent) and wall (what the
// simulation itself cost).
//
// It drives either an in-process pathdb.Engine (default) or, with -url, a
// running xserved instance over real sockets — the same request multiset
// through the same reporting, so in-process and networked throughput are
// directly comparable. In -url mode 503 responses (load shedding) are
// retried and counted, and -timeout sets a per-request budget whose expiry
// (504) is counted as a timeout.
//
// Usage:
//
//	xload -xmark 0.5 -clients 8 -requests 64
//	xload -xmark 0.5 -clients 1 -requests 64      # same work, sequential
//	xload -xml doc.xml -mix q7 -strategy xschedule
//	xload -xmark 0.5 -mix q6,q7,q15 -clients 8    # heavy-tailed multi-query mix
//	xload -xmark 0.5 -write-frac 0.25 -clients 8  # mixed read/write workload
//	xload -xmark 0.5 -clients 8 -parallel 8 -cpuprofile cpu.pprof -json .
//	xload -url http://localhost:8080 -clients 16 -requests 256 -timeout 250
//
// -mix takes one name (q6, q7, q15, all) or a comma-separated list, which
// is weighted heavy-tailed: the first name gets half the requests, the
// second a quarter, and so on (powers of two, last two equal) — a skewed
// multi-query workload over one volume.
//
// -write-frac turns that fraction of requests into write transactions:
// each inserts an empty <xloadpad/> element under /site (invisible to the
// query mixes, so read counts stay stable) and reports commit latency.
// Writes go through DB.Update in engine mode and POST /v1/update in url mode;
// concurrent writers exercise the group-commit WAL, whose batching shows
// up as flushes_per_commit < 1 in the report.
//
// The request multiset is fixed by -requests and -mix and distributed
// round-robin, so per-query result counts are independent of -clients —
// the tool self-checks this and exits non-zero if any path's count varies
// between completed requests.
//
// -shards N (engine mode) splits the corpus across N independent volumes
// and drives the scatter-gather coordinator instead of a single engine:
// counts are merged cluster-wide (so the self-check still holds), the
// report adds per-shard throughput, and the snapshot is written as
// BENCH_xload_sharded.json with shards/per-shard/degraded fields so
// benchgate gates sharded runs separately from single-volume ones. With
// -degrade-shard I the -fault-* flags apply to shard I alone; requests
// that lost that shard come back as typed partial results (counted, not
// fatal) under the coordinator's quorum policy. In -url mode the tool
// detects a sharded server from pathdb_cluster_shards in /metrics and
// reads the per-shard series off the shard-labeled samples.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pathdb"
	"pathdb/internal/bench"
	"pathdb/internal/shard"
	"pathdb/internal/stats"
)

var mixes = map[string][]string{
	"q6": {"/site/regions//item"},
	"q7": {"/site//description", "/site//annotation", "/site//emailaddress"},
	"q15": {
		"/site/closed_auctions/closed_auction/annotation/description/parlist/listitem/parlist/listitem/text/emph/keyword",
	},
	// Branching paths: structural predicates over wide candidate sets, the
	// workload where the set-at-a-time semi-join (XJoin) earns its keep
	// over per-candidate probing.
	"branch": {
		`/site//item[.//keyword="golden"]`,
		"/site//item[mailbox/mail//keyword]",
		"/site//parlist[(listitem/parlist){1,2}]",
	},
}

// sample is the outcome of one request. A timed-out request has timedOut
// set and carries no count or virtual latency.
type sample struct {
	path     string
	count    int
	virt     stats.Ticks
	wall     time.Duration
	ttfr     time.Duration // streamed: submit to first result node
	isWrite  bool          // a commit; wall is the transaction's commit latency
	timedOut bool
	errKind  string // non-empty for a typed storage fault ("io", "corrupt")
	partial  bool   // sharded: a degraded shard was excluded from the merge
	degraded int    // sharded: how many shards faulted out of this request
}

// backend issues one query and reports cluster-wide engine state at the
// end. Implemented over an in-process engine and over HTTP.
type backend interface {
	// do runs one request; shed is the number of 503-and-retry rounds it
	// took to get admitted.
	do(path string) (s sample, shed int64, err error)
	// stream runs one request with streamed delivery (a cursor in engine
	// mode, NDJSON in url mode), draining it fully; the sample's ttfr is
	// the time to the first result node.
	stream(path string) (s sample, shed int64, err error)
	// update commits one write transaction (an <xloadpad/> insert under
	// /site); the sample's wall is the commit latency.
	update() (s sample, shed int64, err error)
	// virtualTotal is the volume's virtual clock advance since start.
	virtualTotal() stats.Ticks
	// engineMetrics returns the engine's admission/dispatch counters.
	engineMetrics() (pathdb.EngineMetrics, error)
	// txnMetrics returns the transaction subsystem's counters.
	txnMetrics() (pathdb.TxnMetrics, error)
	close()
}

// predConfigurable lets the -pred-compare pass swap the predicate
// evaluator (and pin the access strategy) between replays of the branch
// mix. Every backend implements it: the engine and cluster backends
// thread it through QueryOptions, the HTTP backend through the request
// body.
type predConfigurable interface {
	setPredEval(pathdb.PredEval)
	setStrategy(pathdb.Strategy)
}

// shardAware is the optional backend extension for sharded runs: the
// cluster backend always implements it meaningfully; the HTTP backend
// does once it detects pathdb_cluster_shards in /metrics.
type shardAware interface {
	shardCount() int
	// perShard reports each shard's slice of the run; wall is the run's
	// total wall time (for per-shard q/s).
	perShard(wall time.Duration) ([]bench.ShardLoadJSON, error)
}

// resolveMix expands -mix into the request pattern. A single name maps to
// its path set; a comma-separated list is weighted heavy-tailed (the i-th
// of n names gets weight 2^(n-1-i)), with every member's paths cycled
// round-robin inside its weight share so the full path set is exercised.
func resolveMix(mixName string) ([]string, error) {
	expand := func(name string) ([]string, error) {
		if ps, ok := mixes[name]; ok {
			return ps, nil
		}
		if name == "all" {
			var ps []string
			for _, n := range []string{"q6", "q7", "q15", "branch"} {
				ps = append(ps, mixes[n]...)
			}
			return ps, nil
		}
		return nil, fmt.Errorf("unknown mix %q (want q6, q7, q15, branch or all)", name)
	}
	names := strings.Split(mixName, ",")
	if len(names) == 1 {
		return expand(names[0])
	}
	groups := make([][]string, len(names))
	cycles := 1
	for i, name := range names {
		ps, err := expand(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		groups[i] = ps
		cycles = lcm(cycles, len(ps))
	}
	// One cycle interleaves every group at its weight; `cycles` cycles
	// bring every group's round-robin counter back to zero.
	var pattern []string
	ctr := make([]int, len(groups))
	for c := 0; c < cycles; c++ {
		for i, ps := range groups {
			// Weights halve down the list, last two equal: 4,2,2 for three
			// names — the first gets half the requests, exactly.
			w := 1 << (len(groups) - 1 - i)
			if i == len(groups)-1 {
				w = 2
			}
			for k := 0; k < w; k++ {
				pattern = append(pattern, ps[ctr[i]%len(ps)])
				ctr[i]++
			}
		}
	}
	return pattern, nil
}

func lcm(a, b int) int {
	x, y := a, b
	for y != 0 {
		x, y = y, x%y
	}
	return a / x * b
}

func main() {
	xmlFile := flag.String("xml", "", "XML document to load")
	xmarkSF := flag.Float64("xmark", 0, "generate an XMark document with this scale factor instead")
	scale := flag.Float64("scale", 0.1, "entity scale for -xmark")
	seed := flag.Uint64("seed", 42, "seed for -xmark and fragmented layouts")
	layoutName := flag.String("layout", "natural", "physical layout: natural, contiguous, shuffled")
	buffer := flag.Int("buffer", 0, "buffer pool pages (default 1000)")
	faultRead := flag.Float64("fault-read", 0, "probability a page read fails transiently (engine mode only)")
	faultCorrupt := flag.Float64("fault-corrupt", 0, "probability a page read returns a torn image (engine mode only)")
	faultLatency := flag.Float64("fault-latency", 0, "probability a page read takes a latency spike (engine mode only)")
	faultSeed := flag.Uint64("fault-seed", 1, "seed of the deterministic fault plane")
	shards := flag.Int("shards", 1, "split the corpus across N volumes behind the scatter-gather coordinator (engine mode)")
	degradeShard := flag.Int("degrade-shard", -1, "apply the -fault-* schedule to this shard only (requires -shards > 1)")

	url := flag.String("url", "", "drive a running xserved at this base URL instead of an in-process engine")
	clients := flag.Int("clients", 8, "concurrent client goroutines")
	requests := flag.Int("requests", 64, "total queries across all clients")
	mixName := flag.String("mix", "q6", "query mix: q6, q7, q15, all, or a comma-separated heavy-tailed list (q6,q7,q15)")
	writeFrac := flag.Float64("write-frac", 0, "fraction of requests that are write transactions (0..0.9)")
	strategy := flag.String("strategy", "auto", "plan strategy: auto, simple, xschedule, xscan")
	predsName := flag.String("preds", "auto", "predicate evaluator: auto, nested, join")
	predCompare := flag.Bool("pred-compare", false, "after the main run, replay the 'branch' mix under per-candidate (nested) and chooser-picked predicate evaluation and record both in the JSON snapshot")
	timeoutMS := flag.Int64("timeout", 0, "per-request budget in milliseconds (0 = none)")
	inflight := flag.Int("inflight", 0, "engine MaxInFlight (default 8)")
	queue := flag.Int("queue", 0, "engine QueueDepth (default 64)")
	parallel := flag.Int("parallel", 0, "engine worker-pool width per gang (default min(MaxInFlight, GOMAXPROCS))")
	sorted := flag.Bool("sorted", false, "request document-order results")
	streamMode := flag.Bool("stream", false, "streamed delivery: drain a cursor (engine mode) or NDJSON (url mode) per request and report time-to-first-result")
	jsonDir := flag.String("json", "", "write BENCH_xload.json into this directory")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file")
	mutexprofile := flag.String("mutexprofile", "", "write a mutex-contention profile to this file")
	flag.Parse()

	strat, err := pathdb.ParseStrategy(*strategy)
	if err != nil {
		fail("%v", err)
	}
	predEval, err := pathdb.ParsePredEval(*predsName)
	if err != nil {
		fail("%v", err)
	}
	paths, err := resolveMix(*mixName)
	if err != nil {
		fail("%v", err)
	}
	if *clients < 1 || *requests < 1 {
		fail("-clients and -requests must be positive")
	}
	if *writeFrac < 0 || *writeFrac > 0.9 {
		fail("-write-frac must be in [0, 0.9]")
	}
	// Request i is a write when a fixed hash of i lands on the write
	// stride. The hash keeps the choice deterministic in i — the read
	// multiset (and the per-path count self-check) stays independent of
	// -clients — while scattering writes across client residues; a plain
	// i%N stride would pin every write to one client and writers would
	// never meet in the group-commit window.
	writeEvery := 0
	if *writeFrac > 0 {
		writeEvery = int(1 / *writeFrac)
		if writeEvery < 2 {
			writeEvery = 2
		}
	}
	isWriteReq := func(i int) bool {
		if writeEvery == 0 {
			return false
		}
		h := uint64(i) * 0x9E3779B97F4A7C15 // Fibonacci hashing
		return int(h>>33)%writeEvery == 0
	}

	// Resolve the effective worker-pool width for reporting (the engine
	// applies the same default; meaningless in -url mode, where the server
	// owns the engine).
	effParallel := *parallel
	if effParallel <= 0 {
		effParallel = *inflight
		if effParallel <= 0 {
			effParallel = 8
		}
		if g := runtime.GOMAXPROCS(0); effParallel > g {
			effParallel = g
		}
	}

	faultsOn := *faultRead > 0 || *faultCorrupt > 0 || *faultLatency > 0

	// One QueryOptions for the whole run: strategy, ordering, per-request
	// budget and (streamed runs) limit all travel in the same struct every
	// evaluation surface takes, instead of per-call-site flag plumbing.
	queryOpts := pathdb.QueryOptions{
		Strategy: strat,
		Sorted:   *sorted,
		PredEval: predEval,
		Timeout:  time.Duration(*timeoutMS) * time.Millisecond,
	}

	if *shards < 1 {
		fail("-shards must be >= 1")
	}
	if *degradeShard >= *shards {
		fail("-degrade-shard %d out of range for %d shards", *degradeShard, *shards)
	}

	var be backend
	mode := "engine"
	if *url != "" {
		if faultsOn {
			fail("-fault-* flags require engine mode (the server owns its disk)")
		}
		if *shards > 1 {
			fail("-shards requires engine mode (a sharded server is detected from its /metrics)")
		}
		mode = "url"
		be = newHTTPBackend(strings.TrimRight(*url, "/"), queryOpts)
	} else if *shards > 1 {
		layout, ok := map[string]pathdb.Layout{
			"natural": pathdb.Natural, "contiguous": pathdb.Contiguous, "shuffled": pathdb.Shuffled,
		}[*layoutName]
		if !ok {
			fail("unknown -layout %q", *layoutName)
		}
		opts := pathdb.Options{Layout: layout, LayoutSeed: *seed, BufferPages: *buffer}
		cfg := shard.Config{
			Shards: *shards,
			Engine: pathdb.EngineConfig{MaxInFlight: *inflight, QueueDepth: *queue, Parallel: *parallel},
		}
		var cl *shard.Cluster
		switch {
		case *xmlFile != "":
			data, rerr := os.ReadFile(*xmlFile)
			if rerr != nil {
				fail("%v", rerr)
			}
			cl, err = shard.NewXML(data, opts, cfg)
		case *xmarkSF > 0:
			cl, err = shard.NewXMark(pathdb.XMarkConfig{ScaleFactor: *xmarkSF, Seed: *seed, EntityScale: *scale}, opts, cfg)
		default:
			fail("need -xml, -xmark or -url")
		}
		if err != nil {
			fail("%v", err)
		}
		var pages []string
		for _, sm := range cl.Metrics() {
			pages = append(pages, strconv.Itoa(sm.Pages))
		}
		fmt.Printf("cluster: %d shards, pages per shard: %s\n", cl.Shards(), strings.Join(pages, "/"))
		if faultsOn {
			if *degradeShard < 0 {
				fail("-fault-* with -shards needs -degrade-shard to pick the faulty volume")
			}
			cl.SetFaults(*degradeShard, pathdb.FaultConfig{
				Seed:      *faultSeed,
				ReadError: *faultRead,
				Corrupt:   *faultCorrupt,
				Latency:   *faultLatency,
			})
			cl.MarkDegraded(*degradeShard, true)
			fmt.Printf("faults on shard %d: read=%g corrupt=%g latency=%g seed=%d\n",
				*degradeShard, *faultRead, *faultCorrupt, *faultLatency, *faultSeed)
		}
		be = &clusterBackend{cl: cl, opts: queryOpts}
	} else {
		layout, ok := map[string]pathdb.Layout{
			"natural": pathdb.Natural, "contiguous": pathdb.Contiguous, "shuffled": pathdb.Shuffled,
		}[*layoutName]
		if !ok {
			fail("unknown -layout %q", *layoutName)
		}
		opts := pathdb.Options{Layout: layout, LayoutSeed: *seed, BufferPages: *buffer}
		var db *pathdb.DB
		switch {
		case *xmlFile != "":
			data, rerr := os.ReadFile(*xmlFile)
			if rerr != nil {
				fail("%v", rerr)
			}
			db, err = pathdb.LoadXML(data, opts)
		case *xmarkSF > 0:
			db, err = pathdb.GenerateXMark(pathdb.XMarkConfig{ScaleFactor: *xmarkSF, Seed: *seed, EntityScale: *scale}, opts)
		default:
			fail("need -xml, -xmark or -url")
		}
		if err != nil {
			fail("%v", err)
		}
		fmt.Printf("document: %d pages\n", db.Pages())
		eng := db.NewEngine(pathdb.EngineConfig{MaxInFlight: *inflight, QueueDepth: *queue, Parallel: *parallel})
		db.ResetStats() // cold start after the cost model's offline pass
		if faultsOn {
			db.SetFaults(pathdb.FaultConfig{
				Seed:      *faultSeed,
				ReadError: *faultRead,
				Corrupt:   *faultCorrupt,
				Latency:   *faultLatency,
			})
			fmt.Printf("faults: read=%g corrupt=%g latency=%g seed=%d\n",
				*faultRead, *faultCorrupt, *faultLatency, *faultSeed)
		}
		be = &engineBackend{db: db, eng: eng, opts: queryOpts}
	}
	defer be.close()

	if *mutexprofile != "" {
		runtime.SetMutexProfileFraction(5)
	}
	if *cpuprofile != "" {
		f, cerr := os.Create(*cpuprofile)
		if cerr != nil {
			fail("%v", cerr)
		}
		if perr := pprof.StartCPUProfile(f); perr != nil {
			fail("cpu profile: %v", perr)
		}
	}

	// Request i evaluates paths[i%len(paths)]; client c takes the requests
	// with i%clients == c. The multiset of executed queries is therefore
	// the same for every -clients value.
	samples := make([]sample, *requests)
	var shedTotal atomic.Int64
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	wallStart := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < *requests; i += *clients {
				var (
					s    sample
					shed int64
					err  error
				)
				switch {
				case isWriteReq(i):
					s, shed, err = be.update()
				case *streamMode:
					s, shed, err = be.stream(paths[i%len(paths)])
				default:
					s, shed, err = be.do(paths[i%len(paths)])
				}
				if err != nil {
					fail("request %d: %v", i, err)
				}
				shedTotal.Add(shed)
				samples[i] = s
			}
		}(c)
	}
	wg.Wait()
	wallTotal := time.Since(wallStart)
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	allocsPerOp := int64(ms1.Mallocs-ms0.Mallocs) / int64(*requests)
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	virtTotal := be.virtualTotal()

	// Per-path counts over completed requests, self-checked for
	// consistency.
	counts := map[string]int{}
	countOK := true
	var timeouts, partials, degradedHits int64
	faultKinds := map[string]int64{}
	for _, s := range samples {
		if s.timedOut {
			timeouts++
			continue
		}
		if s.errKind != "" {
			faultKinds[s.errKind]++
			continue
		}
		if s.isWrite { // commits don't return result counts
			continue
		}
		if s.partial {
			// A degraded shard was excluded, so this count legitimately
			// misses that shard's entities; it would poison the
			// determinism self-check.
			partials++
			degradedHits += int64(s.degraded)
			continue
		}
		if prev, seen := counts[s.path]; seen && prev != s.count {
			fmt.Fprintf(os.Stderr, "xload: count(%s) varies between requests: %d vs %d\n", s.path, prev, s.count)
			countOK = false
		}
		counts[s.path] = s.count
	}
	for _, p := range sortedKeys(counts) {
		fmt.Printf("count(%s) = %d\n", p, counts[p])
	}

	// Partial (degraded-shard) results completed with real work done, so
	// they count toward throughput and latency; only the count self-check
	// above excludes them.
	var virtLat, wallLat, commitLat []float64
	var writes int64
	for _, s := range samples {
		if s.timedOut || s.errKind != "" {
			continue
		}
		if s.isWrite {
			writes++
			commitLat = append(commitLat, s.wall.Seconds())
			continue
		}
		virtLat = append(virtLat, s.virt.Seconds())
		wallLat = append(wallLat, s.wall.Seconds())
	}
	completed := len(wallLat)
	if completed == 0 {
		fail("every request timed out")
	}
	fmt.Printf("mode=%s clients=%d requests=%d strategy=%s mix=%s", mode, *clients, *requests, strat, *mixName)
	if writes > 0 {
		fmt.Printf(" writes=%d (write-frac %.2f)", writes, *writeFrac)
	}
	fmt.Println()
	fmt.Printf("throughput: %.2f q/s virtual (%d in %.3fs), %.1f q/s wall (%.3fs)\n",
		float64(completed)/virtTotal.Seconds(), completed, virtTotal.Seconds(),
		float64(completed)/wallTotal.Seconds(), wallTotal.Seconds())
	fmt.Printf("latency virtual [s]: %s\n", percentiles(virtLat))
	fmt.Printf("latency wall    [s]: %s\n", percentiles(wallLat))
	fmt.Printf("allocs/op: %d\n", allocsPerOp)
	if shedTotal.Load() > 0 || timeouts > 0 {
		fmt.Printf("shed retries=%d timeouts=%d\n", shedTotal.Load(), timeouts)
	}
	if len(faultKinds) > 0 {
		fmt.Printf("faulted: io=%d corrupt=%d\n", faultKinds["io"], faultKinds["corrupt"])
	}
	if partials > 0 {
		fmt.Printf("partial results=%d (degraded-shard faults absorbed: %d)\n", partials, degradedHits)
	}
	m, merr := be.engineMetrics()
	if merr != nil {
		fail("engine metrics: %v", merr)
	}
	fmt.Printf("engine: gangs=%d batched=%d/%d rejected=%d faulted=%d overhead=%v\n",
		m.Gangs, m.Batched, m.Submitted, m.Rejected, m.Faulted, m.OverheadV)

	// Per-shard slice of the run (sharded engine mode, or a sharded server
	// detected over /metrics).
	var perShard []bench.ShardLoadJSON
	shardCount := 0
	if sa, ok := be.(shardAware); ok && sa.shardCount() > 1 {
		shardCount = sa.shardCount()
		var perr error
		perShard, perr = sa.perShard(wallTotal)
		if perr != nil {
			fail("per-shard metrics: %v", perr)
		}
		for _, ps := range perShard {
			fmt.Printf("shard %d: %.1f q/s wall, completed=%d faulted=%d degraded_hits=%d\n",
				ps.Shard, ps.WallQPS, ps.Completed, ps.Faulted, ps.DegradedHits)
		}
	}
	var tm pathdb.TxnMetrics
	if writes > 0 {
		var terr error
		tm, terr = be.txnMetrics()
		if terr != nil {
			fail("txn metrics: %v", terr)
		}
		fmt.Printf("txn: commits=%d aborts=%d groups=%d max_group=%d flushes/commit=%.3f\n",
			tm.Commits, tm.Aborts, tm.Groups, tm.MaxGroup, tm.FlushesPerCommit)
		fmt.Printf("commit latency wall [s]: %s\n", percentiles(commitLat))
	}

	// Streamed runs add a dedicated time-to-first-result pass. TTFR is a
	// per-request property: in the closed loop above, the engine's
	// gang-sequential dispatch makes queue wait dominate both the first
	// and the last node, so contended TTFR cannot distinguish genuine
	// incremental delivery from buffer-then-replay. One client replaying
	// the read mix sequentially can — the drain percentiles below are the
	// same pass's full-drain wall times, so ttfr≪drain is the streaming
	// win and ttfr≈drain is a delivery regression.
	var ttfrLat, drainLat []float64
	if *streamMode {
		n := 2 * len(paths)
		if n < 32 {
			n = 32
		}
		if n > 96 {
			n = 96
		}
		for i := 0; i < n; i++ {
			s, _, serr := be.stream(paths[i%len(paths)])
			if serr != nil {
				fail("ttfr pass: %v", serr)
			}
			if s.timedOut || s.errKind != "" {
				continue
			}
			ttfrLat = append(ttfrLat, s.ttfr.Seconds())
			drainLat = append(drainLat, s.wall.Seconds())
		}
		if len(ttfrLat) > 0 {
			fmt.Printf("ttfr wall       [s]: %s (uncontended pass, %d requests)\n", percentiles(ttfrLat), len(ttfrLat))
			fmt.Printf("drain wall      [s]: %s\n", percentiles(drainLat))
		}
	}

	// -pred-compare: replay the branch mix — structural predicates over
	// wide candidate sets — under both predicate evaluators, at the same
	// client/parallel configuration as the main run. The access strategy is
	// pinned to Simple for both replays — the lowest, identical navigation
	// floor — so the comparison isolates the predicate evaluator, not the
	// I/O operator choice; a warm-up pass first, so both measured replays
	// run against the same buffer-pool and filter-set-cache state and
	// measure steady state.
	var predCmp *bench.PredCompareJSON
	if *predCompare {
		pc, ok := be.(predConfigurable)
		if !ok {
			fail("-pred-compare is not supported by this backend")
		}
		pc.setStrategy(pathdb.Simple)
		branchPaths := mixes["branch"]
		n := *requests
		replay := func(pe pathdb.PredEval) (float64, int64) {
			pc.setPredEval(pe)
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			t0 := time.Now()
			var wg sync.WaitGroup
			for c := 0; c < *clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := c; i < n; i += *clients {
						if _, _, err := be.do(branchPaths[i%len(branchPaths)]); err != nil {
							fail("pred-compare request %d: %v", i, err)
						}
					}
				}(c)
			}
			wg.Wait()
			wall := time.Since(t0).Seconds()
			runtime.ReadMemStats(&ms1)
			return wall, int64(ms1.Mallocs-ms0.Mallocs) / int64(n)
		}
		// Warm-up, discarded: forced join seeds the epoch-keyed filter-set
		// cache, so the chooser prices the resident builds and both measured
		// replays run at steady state.
		replay(pathdb.PredJoin)
		nestedWall, nestedAllocs := replay(pathdb.PredNested)
		autoWall, autoAllocs := replay(pathdb.PredAuto) // chooser-picked
		pc.setPredEval(predEval)                        // restore the run's settings
		pc.setStrategy(strat)
		predCmp = &bench.PredCompareJSON{
			Mix:          "branch",
			Requests:     n,
			NestedWallS:  nestedWall,
			JoinWallS:    autoWall,
			NestedAllocs: nestedAllocs,
			JoinAllocs:   autoAllocs,
		}
		if autoWall > 0 {
			predCmp.Speedup = nestedWall / autoWall
		}
		fmt.Printf("pred-compare (branch mix, %d requests): nested %.3fs, chooser-picked %.3fs (%.2fx), allocs/op %d vs %d\n",
			n, nestedWall, autoWall, predCmp.Speedup, nestedAllocs, autoAllocs)
	}

	if *memprofile != "" {
		f, merr := os.Create(*memprofile)
		if merr != nil {
			fail("%v", merr)
		}
		runtime.GC()
		if perr := pprof.WriteHeapProfile(f); perr != nil {
			fail("heap profile: %v", perr)
		}
		f.Close()
	}
	if *mutexprofile != "" {
		f, merr := os.Create(*mutexprofile)
		if merr != nil {
			fail("%v", merr)
		}
		if perr := pprof.Lookup("mutex").WriteTo(f, 0); perr != nil {
			fail("mutex profile: %v", perr)
		}
		f.Close()
	}
	if *jsonDir != "" {
		sort.Float64s(virtLat)
		sort.Float64s(wallLat)
		sort.Float64s(ttfrLat)
		sort.Float64s(drainLat)
		sort.Float64s(commitLat)
		pick := func(xs []float64, p float64) float64 {
			if len(xs) == 0 {
				return 0
			}
			return xs[int(p*float64(len(xs)-1))]
		}
		name := "xload"
		if shardCount > 1 {
			name = "xload_sharded"
		}
		jerr := bench.WriteLoadJSON(*jsonDir, name, bench.LoadJSON{
			Mode:             mode,
			Clients:          *clients,
			Requests:         *requests,
			Mix:              *mixName,
			Strategy:         strat.String(),
			Preds:            predEval.String(),
			PredCompare:      predCmp,
			Parallel:         effParallel,
			VirtualSec:       virtTotal.Seconds(),
			WallSec:          wallTotal.Seconds(),
			VirtualQPS:       float64(completed) / virtTotal.Seconds(),
			WallQPS:          float64(completed) / wallTotal.Seconds(),
			AllocsPerOp:      allocsPerOp,
			P50WallSec:       pick(wallLat, 0.50),
			P99WallSec:       pick(wallLat, 0.99),
			P50VirtSec:       pick(virtLat, 0.50),
			P99VirtSec:       pick(virtLat, 0.99),
			Stream:           *streamMode,
			P50TTFRSec:       pick(ttfrLat, 0.50),
			P99TTFRSec:       pick(ttfrLat, 0.99),
			P50DrainSec:      pick(drainLat, 0.50),
			P99DrainSec:      pick(drainLat, 0.99),
			Submitted:        m.Submitted,
			Rejected:         m.Rejected,
			Gangs:            m.Gangs,
			Batched:          m.Batched,
			ShedRetries:      shedTotal.Load(),
			Timeouts:         timeouts,
			WriteFrac:        *writeFrac,
			Writes:           writes,
			Commits:          tm.Commits,
			Aborts:           tm.Aborts,
			Groups:           tm.Groups,
			FlushesPerCommit: tm.FlushesPerCommit,
			P50CommitSec:     pick(commitLat, 0.50),
			P99CommitSec:     pick(commitLat, 0.99),
			Shards:           shardCount,
			PartialResults:   partials,
			DegradedHits:     degradedHits,
			PerShard:         perShard,
		})
		if jerr != nil {
			fail("%v", jerr)
		}
	}

	if !countOK {
		os.Exit(1)
	}
}

// engineBackend drives an in-process pathdb.Engine (the original mode).
// The run's whole query configuration — strategy, ordering, per-request
// budget — travels in one pathdb.QueryOptions.
type engineBackend struct {
	db   *pathdb.DB
	eng  *pathdb.Engine
	opts pathdb.QueryOptions

	once sync.Once
	ses  *pathdb.Session

	rootOnce sync.Once
	root     pathdb.Node
	rootErr  error
}

// classify maps a failed request onto a sample: timeouts and typed storage
// faults are recorded outcomes, anything else aborts the run.
func classify(path string, err error, t0 time.Time, isWrite bool) (sample, bool) {
	if errors.Is(err, pathdb.ErrTimeout) {
		return sample{path: path, wall: time.Since(t0), timedOut: true, isWrite: isWrite}, true
	}
	if k := pathdb.KindOf(err); k == pathdb.KindIO || k == pathdb.KindCorrupt {
		return sample{path: path, wall: time.Since(t0), errKind: k.String(), isWrite: isWrite}, true
	}
	return sample{}, false
}

func (b *engineBackend) session() *pathdb.Session {
	b.once.Do(func() { b.ses = b.eng.NewSession() })
	return b.ses // sessions are safe for concurrent use
}

func (b *engineBackend) do(path string) (sample, int64, error) {
	t0 := time.Now()
	res, err := b.session().Do(context.Background(), path, b.opts)
	if err != nil {
		if s, ok := classify(path, err, t0, false); ok {
			return s, 0, nil
		}
		return sample{}, 0, err
	}
	return sample{path: path, count: res.Count(), virt: res.VirtualLatency, wall: time.Since(t0)}, 0, nil
}

// stream drains a cursor, timing the first Next — the in-process
// time-to-first-result, with no HTTP framing in the way.
func (b *engineBackend) stream(path string) (sample, int64, error) {
	t0 := time.Now()
	cur, err := b.session().Stream(context.Background(), path, b.opts)
	if err != nil {
		if s, ok := classify(path, err, t0, false); ok {
			return s, 0, nil
		}
		return sample{}, 0, err
	}
	defer cur.Close()
	var ttfr time.Duration
	for cur.Next() {
		if cur.Count() == 1 {
			ttfr = time.Since(t0)
		}
	}
	if err := cur.Err(); err != nil {
		if s, ok := classify(path, err, t0, false); ok {
			return s, 0, nil
		}
		return sample{}, 0, err
	}
	wall := time.Since(t0)
	var virt stats.Ticks
	if res, ok := cur.Summary(); ok {
		virt = res.VirtualLatency
	}
	return sample{path: path, count: cur.Count(), virt: virt, wall: wall, ttfr: ttfr}, 0, nil
}

// update commits one <xloadpad/> insert under the document root through
// the engine's write admission; wall is the full commit latency including
// the group-commit window.
func (b *engineBackend) update() (sample, int64, error) {
	b.rootOnce.Do(func() {
		res, err := b.db.Query("/site")
		if err != nil {
			b.rootErr = err
			return
		}
		nodes := res.Nodes()
		if len(nodes) != 1 {
			b.rootErr = fmt.Errorf("expected one /site root, found %d", len(nodes))
			return
		}
		b.root = nodes[0]
	})
	if b.rootErr != nil {
		return sample{}, 0, b.rootErr
	}
	t0 := time.Now()
	err := b.eng.Update(func(tx *pathdb.Tx) error {
		_, ierr := tx.InsertXML(b.root, "<xloadpad/>")
		return ierr
	})
	if err != nil {
		if k := pathdb.KindOf(err); k == pathdb.KindIO || k == pathdb.KindCorrupt {
			return sample{isWrite: true, wall: time.Since(t0), errKind: k.String()}, 0, nil
		}
		return sample{}, 0, err
	}
	return sample{isWrite: true, wall: time.Since(t0)}, 0, nil
}

func (b *engineBackend) setPredEval(pe pathdb.PredEval) { b.opts.PredEval = pe }

func (b *engineBackend) setStrategy(st pathdb.Strategy) { b.opts.Strategy = st }

func (b *engineBackend) virtualTotal() stats.Ticks { return b.db.CostReport().Total }

func (b *engineBackend) engineMetrics() (pathdb.EngineMetrics, error) { return b.eng.Metrics(), nil }

func (b *engineBackend) txnMetrics() (pathdb.TxnMetrics, error) { return b.db.TxnMetrics(), nil }

func (b *engineBackend) close() { b.eng.Close() }

// clusterBackend drives the scatter-gather coordinator over N independent
// volumes in-process — the sharded counterpart of engineBackend. Counts
// come back merged cluster-wide, so the per-path self-check holds at any
// shard count; a request that lost a degraded shard is marked partial and
// skipped by the check instead.
type clusterBackend struct {
	cl   *shard.Cluster
	opts pathdb.QueryOptions
}

// ctx applies the run's per-request budget to operations that take a bare
// context (cluster writes); queries carry the budget inside opts.Timeout.
func (b *clusterBackend) ctx() (context.Context, context.CancelFunc) {
	if b.opts.Timeout > 0 {
		return context.WithTimeout(context.Background(), b.opts.Timeout)
	}
	return context.Background(), func() {}
}

func (b *clusterBackend) do(path string) (sample, int64, error) {
	t0 := time.Now()
	m, err := b.cl.Query(context.Background(), path, b.opts, false)
	if err != nil {
		// classify covers beyond-quorum storage faults (or PolicyAll): the
		// whole request failed.
		if s, ok := classify(path, err, t0, false); ok {
			return s, 0, nil
		}
		return sample{}, 0, err
	}
	// The shards run in parallel; the request's virtual latency is the
	// slowest shard's.
	var virt stats.Ticks
	for _, ps := range m.PerShard {
		if !ps.Failed && ps.VirtLat > virt {
			virt = ps.VirtLat
		}
	}
	return sample{
		path:     path,
		count:    m.Count,
		virt:     virt,
		wall:     time.Since(t0),
		partial:  m.Partial,
		degraded: len(m.Degraded),
	}, 0, nil
}

// stream drains the cluster's k-way merge cursor, timing the first merged
// node — cross-shard time-to-first-result without HTTP framing.
func (b *clusterBackend) stream(path string) (sample, int64, error) {
	t0 := time.Now()
	sc, err := b.cl.Stream(context.Background(), path, b.opts)
	if err != nil {
		if s, ok := classify(path, err, t0, false); ok {
			return s, 0, nil
		}
		return sample{}, 0, err
	}
	defer sc.Close()
	var ttfr time.Duration
	for sc.Next() {
		if sc.Count() == 1 {
			ttfr = time.Since(t0)
		}
	}
	if err := sc.Err(); err != nil {
		if s, ok := classify(path, err, t0, false); ok {
			return s, 0, nil
		}
		return sample{}, 0, err
	}
	wall := time.Since(t0)
	s := sample{path: path, count: sc.Count(), wall: wall, ttfr: ttfr}
	if sum, ok := sc.Summary(); ok {
		s.partial = sum.Partial
		s.degraded = len(sum.Degraded)
		for _, ps := range sum.PerShard {
			if !ps.Failed && ps.VirtLat > s.virt {
				s.virt = ps.VirtLat
			}
		}
	}
	return s, 0, nil
}

func (b *clusterBackend) update() (sample, int64, error) {
	ctx, cancel := b.ctx()
	defer cancel()
	t0 := time.Now()
	_, err := b.cl.Insert(ctx, "/site", "<xloadpad/>")
	if err != nil {
		if errors.Is(err, pathdb.ErrTimeout) {
			return sample{isWrite: true, wall: time.Since(t0), timedOut: true}, 0, nil
		}
		if k := pathdb.KindOf(err); k == pathdb.KindIO || k == pathdb.KindCorrupt {
			return sample{isWrite: true, wall: time.Since(t0), errKind: k.String()}, 0, nil
		}
		return sample{}, 0, err
	}
	return sample{isWrite: true, wall: time.Since(t0)}, 0, nil
}

func (b *clusterBackend) setPredEval(pe pathdb.PredEval) { b.opts.PredEval = pe }

func (b *clusterBackend) setStrategy(st pathdb.Strategy) { b.opts.Strategy = st }

func (b *clusterBackend) virtualTotal() stats.Ticks {
	var total stats.Ticks
	for _, db := range b.cl.Set().Shards {
		total += db.CostReport().Total
	}
	return total
}

func (b *clusterBackend) engineMetrics() (pathdb.EngineMetrics, error) {
	var sum pathdb.EngineMetrics
	for _, sm := range b.cl.Metrics() {
		sum.Submitted += sm.Engine.Submitted
		sum.Rejected += sm.Engine.Rejected
		sum.Completed += sm.Engine.Completed
		sum.Cancelled += sm.Engine.Cancelled
		sum.Gangs += sm.Engine.Gangs
		sum.Batched += sm.Engine.Batched
		sum.Faulted += sm.Engine.Faulted
		sum.Updates += sm.Engine.Updates
		sum.OverheadV += sm.Engine.OverheadV
	}
	return sum, nil
}

func (b *clusterBackend) txnMetrics() (pathdb.TxnMetrics, error) {
	var sum pathdb.TxnMetrics
	for _, sm := range b.cl.Metrics() {
		sum.Commits += sm.Txn.Commits
		sum.Aborts += sm.Txn.Aborts
		sum.Groups += sm.Txn.Groups
		sum.Flushes += sm.Txn.Flushes
		if sm.Txn.MaxGroup > sum.MaxGroup {
			sum.MaxGroup = sm.Txn.MaxGroup
		}
	}
	if sum.Commits > 0 {
		sum.FlushesPerCommit = float64(sum.Flushes) / float64(sum.Commits)
	}
	return sum, nil
}

func (b *clusterBackend) shardCount() int { return b.cl.Shards() }

func (b *clusterBackend) perShard(wall time.Duration) ([]bench.ShardLoadJSON, error) {
	out := make([]bench.ShardLoadJSON, 0, b.cl.Shards())
	for _, sm := range b.cl.Metrics() {
		out = append(out, bench.ShardLoadJSON{
			Shard:        sm.Shard,
			WallQPS:      float64(sm.Engine.Completed) / wall.Seconds(),
			Submitted:    sm.Engine.Submitted,
			Completed:    sm.Engine.Completed,
			Faulted:      sm.Engine.Faulted,
			DegradedHits: sm.DegradedHits,
		})
	}
	return out, nil
}

func (b *clusterBackend) close() { b.cl.Close() }

// httpBackend drives a running xserved over real sockets. It detects a
// sharded server (router mode) from the pathdb_cluster_shards gauge and
// then reads the labeled per-shard /metrics rollup: counters are summed
// across shard labels, which reduces to the plain series when the server
// is single-volume.
type httpBackend struct {
	base   string
	client *http.Client
	opts   pathdb.QueryOptions

	shards int         // from pathdb_cluster_shards; 0 for a single-volume server
	virt0  stats.Ticks // virtual clock at start, from /metrics
}

func newHTTPBackend(base string, opts pathdb.QueryOptions) *httpBackend {
	b := &httpBackend{
		base:   base,
		client: &http.Client{},
		opts:   opts,
	}
	m, err := b.scrape()
	if err != nil {
		fail("cannot reach %s: %v", base, err)
	}
	b.shards = int(m["pathdb_cluster_shards"])
	// Sharded: per-shard virtual clocks are independent domains; their sum
	// is still a consistent "work done" baseline for throughput deltas.
	b.virt0 = stats.Ticks(sumOf(m, "pathdb_ledger_now_virtual_seconds_total") * 1e9)
	return b
}

// retryAfter returns how long to back off before re-offering a shed
// request: the server's Retry-After, capped at 50ms so the closed loop
// keeps offering load.
func retryAfter(resp *http.Response) time.Duration {
	wait := 5 * time.Millisecond
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
		if d := time.Duration(ra) * time.Second; d < 50*time.Millisecond {
			wait = d
		} else {
			wait = 50 * time.Millisecond
		}
	}
	return wait
}

// queryBody marshals the run's QueryOptions into one /v1/query request.
func (b *httpBackend) queryBody(path string) ([]byte, error) {
	req := map[string]any{"path": path}
	if b.opts.Strategy != pathdb.Auto {
		req["strategy"] = b.opts.Strategy.String()
	}
	if b.opts.Timeout > 0 {
		req["timeout_ms"] = b.opts.Timeout.Milliseconds()
	}
	if b.opts.Sorted {
		req["sorted"] = true
	}
	if b.opts.PredEval != pathdb.PredAuto {
		req["preds"] = b.opts.PredEval.String()
	}
	return json.Marshal(req)
}

// do POSTs one query. 503 (shedding or drain) and 429 (per-tenant quota,
// router mode) are retried after the server's Retry-After (capped at 50ms
// so the closed loop keeps offering load); 504 marks the sample timed out.
func (b *httpBackend) do(path string) (sample, int64, error) {
	body, err := b.queryBody(path)
	if err != nil {
		return sample{}, 0, err
	}

	var shed int64
	t0 := time.Now()
	for {
		resp, err := b.client.Post(b.base+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			return sample{}, shed, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return sample{}, shed, err
		}
		switch resp.StatusCode {
		case http.StatusOK:
			var qr struct {
				Count            int   `json:"count"`
				VirtualLatencyNs int64 `json:"virtual_latency_ns"` // single-volume server
				CostVNs          int64 `json:"cost_v_ns"`          // sharded router
				Partial          bool  `json:"partial"`
				Degraded         []struct {
					Shard int `json:"shard"`
				} `json:"degraded"`
			}
			if err := json.Unmarshal(data, &qr); err != nil {
				return sample{}, shed, fmt.Errorf("bad response: %v\n%s", err, data)
			}
			virt := qr.VirtualLatencyNs
			if virt == 0 {
				virt = qr.CostVNs
			}
			return sample{
				path:     path,
				count:    qr.Count,
				virt:     stats.Ticks(virt),
				wall:     time.Since(t0),
				partial:  qr.Partial,
				degraded: len(qr.Degraded),
			}, shed, nil
		case http.StatusServiceUnavailable, http.StatusTooManyRequests:
			shed++
			time.Sleep(retryAfter(resp))
		case http.StatusGatewayTimeout:
			return sample{path: path, wall: time.Since(t0), timedOut: true}, shed, nil
		default:
			return sample{}, shed, fmt.Errorf("status %d: %s", resp.StatusCode, data)
		}
	}
}

// streamRecord is one NDJSON line of a /v1/query stream: node lines carry
// ord/name, the trailing summary line (Summary true) carries the totals.
type streamRecord struct {
	Summary          bool  `json:"summary"`
	Count            int   `json:"count"`
	VirtualLatencyNs int64 `json:"virtual_latency_ns"`
	CostVNs          int64 `json:"cost_v_ns"`
	Partial          bool  `json:"partial"`
	Degraded         []struct {
		Shard int `json:"shard"`
	} `json:"degraded"`
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

// stream POSTs one query negotiating NDJSON delivery and scans the response
// line by line; ttfr is the time to the first node line on the wire. The
// trailing summary line supplies count and cost; a mid-stream failure
// arrives there too (the status line was long since 200). A stream that
// ends without a summary line was aborted by the server.
func (b *httpBackend) stream(path string) (sample, int64, error) {
	body, err := b.queryBody(path)
	if err != nil {
		return sample{}, 0, err
	}

	var shed int64
	t0 := time.Now()
	for {
		req, err := http.NewRequest(http.MethodPost, b.base+"/v1/query", bytes.NewReader(body))
		if err != nil {
			return sample{}, shed, err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Accept", "application/x-ndjson")
		resp, err := b.client.Do(req)
		if err != nil {
			return sample{}, shed, err
		}
		switch resp.StatusCode {
		case http.StatusOK:
			s, err := b.scanStream(resp.Body, path, t0)
			resp.Body.Close()
			return s, shed, err
		case http.StatusServiceUnavailable, http.StatusTooManyRequests:
			resp.Body.Close()
			shed++
			time.Sleep(retryAfter(resp))
		case http.StatusGatewayTimeout:
			resp.Body.Close()
			return sample{path: path, wall: time.Since(t0), timedOut: true}, shed, nil
		default:
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			return sample{}, shed, fmt.Errorf("stream status %d: %s", resp.StatusCode, data)
		}
	}
}

func (b *httpBackend) scanStream(body io.Reader, path string, t0 time.Time) (sample, error) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var (
		ttfr   time.Duration
		lines  int
		sum    streamRecord
		sawSum bool
	)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec streamRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return sample{}, fmt.Errorf("bad stream line: %v\n%s", err, line)
		}
		if rec.Summary {
			sum, sawSum = rec, true
			break
		}
		lines++
		if lines == 1 {
			ttfr = time.Since(t0)
		}
	}
	if err := sc.Err(); err != nil {
		return sample{}, err
	}
	if !sawSum {
		return sample{}, fmt.Errorf("stream for %s aborted: no summary line after %d nodes", path, lines)
	}
	wall := time.Since(t0)
	if sum.Error != "" {
		switch sum.Kind {
		case "timeout":
			return sample{path: path, wall: wall, timedOut: true}, nil
		case "io", "corrupt":
			return sample{path: path, wall: wall, errKind: sum.Kind}, nil
		default:
			return sample{}, fmt.Errorf("stream for %s failed: %s (%s)", path, sum.Error, sum.Kind)
		}
	}
	virt := sum.VirtualLatencyNs
	if virt == 0 {
		virt = sum.CostVNs
	}
	return sample{
		path:     path,
		count:    sum.Count,
		virt:     stats.Ticks(virt),
		wall:     wall,
		ttfr:     ttfr,
		partial:  sum.Partial,
		degraded: len(sum.Degraded),
	}, nil
}

// update POSTs one <xloadpad/> insert to /v1/update, with the same
// 503-retry and 504-timeout handling as do.
func (b *httpBackend) update() (sample, int64, error) {
	req := map[string]any{"op": "insert", "parent": "/site", "xml": "<xloadpad/>"}
	if b.opts.Timeout > 0 {
		req["timeout_ms"] = b.opts.Timeout.Milliseconds()
	}
	body, err := json.Marshal(req)
	if err != nil {
		return sample{}, 0, err
	}

	var shed int64
	t0 := time.Now()
	for {
		resp, err := b.client.Post(b.base+"/v1/update", "application/json", bytes.NewReader(body))
		if err != nil {
			return sample{}, shed, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return sample{}, shed, err
		}
		switch resp.StatusCode {
		case http.StatusOK:
			return sample{isWrite: true, wall: time.Since(t0)}, shed, nil
		case http.StatusServiceUnavailable, http.StatusTooManyRequests:
			shed++
			time.Sleep(retryAfter(resp))
		case http.StatusGatewayTimeout:
			return sample{isWrite: true, wall: time.Since(t0), timedOut: true}, shed, nil
		default:
			return sample{}, shed, fmt.Errorf("update status %d: %s", resp.StatusCode, data)
		}
	}
}

func (b *httpBackend) setPredEval(pe pathdb.PredEval) { b.opts.PredEval = pe }

func (b *httpBackend) setStrategy(st pathdb.Strategy) { b.opts.Strategy = st }

func (b *httpBackend) txnMetrics() (pathdb.TxnMetrics, error) {
	m, err := b.scrape()
	if err != nil {
		return pathdb.TxnMetrics{}, err
	}
	t := pathdb.TxnMetrics{
		Commits:          uint64(sumOf(m, "pathdb_txn_commits_total")),
		Aborts:           uint64(sumOf(m, "pathdb_txn_aborts_total")),
		Groups:           uint64(sumOf(m, "pathdb_txn_groups_total")),
		Flushes:          uint64(sumOf(m, "pathdb_txn_wal_flushes_total")),
		MaxGroup:         uint64(maxOf(m, "pathdb_txn_max_group_size")),
		Epoch:            uint64(maxOf(m, "pathdb_txn_epoch")),
		FlushesPerCommit: m["pathdb_txn_flushes_per_commit"],
	}
	// The router exposes per-shard flush and commit counters but no
	// derived ratio; recompute it from the sums.
	if t.FlushesPerCommit == 0 && t.Commits > 0 {
		t.FlushesPerCommit = float64(t.Flushes) / float64(t.Commits)
	}
	return t, nil
}

func (b *httpBackend) virtualTotal() stats.Ticks {
	m, err := b.scrape()
	if err != nil {
		fail("metrics: %v", err)
	}
	return stats.Ticks(sumOf(m, "pathdb_ledger_now_virtual_seconds_total")*1e9) - b.virt0
}

func (b *httpBackend) engineMetrics() (pathdb.EngineMetrics, error) {
	m, err := b.scrape()
	if err != nil {
		return pathdb.EngineMetrics{}, err
	}
	return pathdb.EngineMetrics{
		Submitted: int64(sumOf(m, "pathdb_engine_submitted_total")),
		Rejected:  int64(sumOf(m, "pathdb_engine_rejected_total")),
		Completed: int64(sumOf(m, "pathdb_engine_completed_total")),
		Cancelled: int64(sumOf(m, "pathdb_engine_cancelled_total")),
		Gangs:     int64(sumOf(m, "pathdb_engine_gangs_total")),
		Batched:   int64(sumOf(m, "pathdb_engine_batched_total")),
		Faulted:   int64(sumOf(m, "pathdb_engine_faulted_total")),
		OverheadV: stats.Ticks(sumOf(m, "pathdb_engine_overhead_virtual_seconds_total") * 1e9),
	}, nil
}

func (b *httpBackend) shardCount() int {
	if b.shards > 1 {
		return b.shards
	}
	return 1
}

// perShard reconstructs each shard's slice of the run from the labeled
// /metrics rollup — the networked equivalent of clusterBackend.perShard.
func (b *httpBackend) perShard(wall time.Duration) ([]bench.ShardLoadJSON, error) {
	m, err := b.scrape()
	if err != nil {
		return nil, err
	}
	out := make([]bench.ShardLoadJSON, 0, b.shards)
	for i := 0; i < b.shards; i++ {
		l := labelKey("shard", strconv.Itoa(i))
		completed := m["pathdb_engine_completed_total"+l]
		out = append(out, bench.ShardLoadJSON{
			Shard:        i,
			WallQPS:      completed / wall.Seconds(),
			Submitted:    int64(m["pathdb_engine_submitted_total"+l]),
			Completed:    int64(completed),
			Faulted:      int64(m["pathdb_engine_faulted_total"+l]),
			DegradedHits: int64(m["pathdb_shard_degraded_hits_total"+l]),
		})
	}
	return out, nil
}

func (b *httpBackend) close() {}

var promSample = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)

// scrape fetches and parses the server's Prometheus text exposition.
// Labeled samples (router mode) are keyed by name plus their literal
// label set, e.g. `pathdb_engine_completed_total{shard="2"}`.
func (b *httpBackend) scrape() (map[string]float64, error) {
	resp, err := b.client.Get(b.base + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/metrics: status %d", resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(data), "\n") {
		if m := promSample.FindStringSubmatch(line); m != nil {
			if v, err := strconv.ParseFloat(m[3], 64); err == nil {
				out[m[1]+m[2]] = v
			}
		}
	}
	return out, nil
}

// labelKey renders a one-label sample suffix exactly as scrape keys it.
func labelKey(name, value string) string {
	return `{` + name + `="` + value + `"}`
}

// sumOf totals a series across its label sets: the plain sample plus any
// labeled samples of the same name. For a single-volume server this is
// just the plain sample; for a sharded one, the sum over shards.
func sumOf(m map[string]float64, name string) float64 {
	total := m[name]
	for k, v := range m {
		if len(k) > len(name) && k[:len(name)] == name && k[len(name)] == '{' {
			total += v
		}
	}
	return total
}

// maxOf is sumOf's max-reduction counterpart, for gauges where summing
// across shards is meaningless (epochs, max group sizes).
func maxOf(m map[string]float64, name string) float64 {
	best := m[name]
	for k, v := range m {
		if len(k) > len(name) && k[:len(name)] == name && k[len(name)] == '{' && v > best {
			best = v
		}
	}
	return best
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// percentiles renders p50/p90/p99/max of xs.
func percentiles(xs []float64) string {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	pick := func(p float64) float64 {
		i := int(p * float64(len(sorted)-1))
		return sorted[i]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "p50=%.4f p90=%.4f p99=%.4f max=%.4f",
		pick(0.50), pick(0.90), pick(0.99), sorted[len(sorted)-1])
	return b.String()
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "xload: "+format+"\n", args...)
	os.Exit(1)
}
