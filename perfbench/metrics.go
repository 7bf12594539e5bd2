package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"pathdb"
	"pathdb/internal/shard"
	"pathdb/internal/storage"
)

// untraced measures the end-to-end metrics.
func untraced(ctx context.Context, cfg config, tgt target, expect map[string]int, setupS float64, stdout io.Writer) (*report, error) {
	w := cfg.workload
	var m0, m1 runtime.MemStats
	c0 := tgt.counters()
	runtime.ReadMemStats(&m0)
	res := runLoop(ctx, tgt, newSchedule(w, cfg.seed), cfg.dur(), 0, expect, nil)
	runtime.ReadMemStats(&m1)
	c1 := tgt.counters()
	// Live heap: the system's resident state, without the allocator's span
	// fragmentation, which varies run to run. The second collection frees
	// what the first only moved to sync.Pool victim caches.
	runtime.GC()
	runtime.GC()
	var mh runtime.MemStats
	runtime.ReadMemStats(&mh)

	attempted, failed := res.attempted, res.failed
	firstErr := res.firstErr
	commits := res.commits
	if !w.writes {
		// Read-only workloads measure commit latency in a write-only
		// probe after the timed reads, so every workload reports it.
		probe := runLoop(ctx, tgt, newWriteSchedule(w, cfg.seed), 0, int64(cfg.probeCommits), expect, nil)
		attempted += probe.attempted
		failed += probe.failed
		commits = probe.commits
		if firstErr == nil {
			firstErr = probe.firstErr
		}
	}
	if firstErr != nil {
		fmt.Fprintln(stdout, "first failure:", firstErr)
	}
	if len(res.reads) == 0 || len(commits) == 0 {
		return nil, fmt.Errorf("no completed reads or commits (first failure: %v)", firstErr)
	}

	var wall, vcost []float64
	for _, s := range res.reads {
		wall = append(wall, ms(s.wall))
		vcost = append(vcost, ms(s.costV))
	}
	// Virtual CPU per request, reads and writes together, from the volume
	// ledgers (over HTTP the shard and spine volumes' ledgers), on every
	// workload alike: the router's stream summary carries no CPU figure,
	// and a write's CPU lands in the same ledgers as the reads'.
	cpu := c1.volumeCPU - c0.volumeCPU
	p50, b50 := quantile(wall, 0.5)
	p95, b95 := quantile(wall, 0.95)
	c50, cb50 := quantile(commitMS(commits), 0.5)
	fmt.Fprintf(stdout, "reads: %d in %.3f s; read_p50_ms over %d samples (%d beyond), read_p95_ms over %d (%d beyond)\n",
		len(wall), res.wall.Seconds(), len(wall), b50, len(wall), b95)
	source := "the timed loop"
	if !w.writes {
		source = "the write probe"
	}
	fmt.Fprintf(stdout, "commits: %d from %s; commit_p50_ms over %d samples (%d beyond)\n",
		len(commits), source, len(commits), cb50)

	return &report{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":       {setupS, "s"},
			"qps":           {float64(len(res.reads)) / res.wall.Seconds(), "1/s"},
			"read_p50_ms":   {p50, "ms"},
			"read_p95_ms":   {p95, "ms"},
			"commit_p50_ms": {c50, "ms"},
			"vcost_p50_ms":  {median(vcost), "ms"},
			"vcpu_mean_ms":  {ms(cpu) / float64(res.attempted), "ms"},
			"allocs_per_op": {float64(m1.Mallocs-m0.Mallocs) / float64(res.attempted), "count"},
			"heap_mb":       {float64(mh.HeapAlloc) / (1 << 20), "MB"},
		},
	}, nil
}

// traced measures the per-layer metrics: half the run untraced and half
// traced through the facade (the gap is the tracing overhead), then the
// single-client layer replay.
func traced(ctx context.Context, cfg config, tgt target, expect map[string]int, stdout io.Writer) (*report, error) {
	w := cfg.workload
	half := cfg.dur() / 2
	plain := runLoop(ctx, tgt, newSchedule(w, cfg.seed), half, 0, expect, nil)

	tr := newTracer()
	ht, isHTTP := tgt.(*httpTarget)
	var bytes0 int64
	if isHTTP {
		bytes0 = ht.bytesOut.Load()
		ht.tr.Store(tr)
	}
	c0 := tgt.counters()
	res := runLoop(ctx, tgt, newSchedule(w, cfg.seed), half, 0, expect, tr)
	c1 := tgt.counters()
	if isHTTP {
		ht.tr.Store(nil)
	}

	ltr := newTracer()
	ls, err := newLayerStore(cfg.xmark(), w.frames)
	if err != nil {
		return nil, fmt.Errorf("layer store: %w", err)
	}
	n := w.layerRequests
	acc, err := runLayers(newSchedule(w, cfg.seed), ls, n, expect, ltr)
	ls.close()
	if err != nil {
		return nil, err
	}
	if w.shards > 0 {
		cl, err := shard.NewXMark(cfg.xmark(), pathdb.Options{}, shard.Config{Shards: w.shards})
		if err != nil {
			return nil, fmt.Errorf("layer cluster: %w", err)
		}
		// The shard metrics need no long replay; 96 requests keep the
		// traced run well inside its time budget.
		err = runClusterLayer(newSchedule(w, cfg.seed), cl, min(n, 96), expect, ltr, acc)
		cl.Close()
		if err != nil {
			return nil, err
		}
	}

	for _, t := range []struct {
		tr   *tracer
		part string
	}{{tr, "facade"}, {ltr, "layers"}} {
		path, err := t.tr.write(cfg.traceDir, fmt.Sprintf("%s-seed%d-%s.jsonl", w.name, cfg.seed, t.part))
		if err != nil {
			return nil, err
		}
		fmt.Fprintln(stdout, "spans:", path)
	}

	attempted := plain.attempted + res.attempted + acc.reads + acc.commits + acc.shardReads + acc.shardInserts
	failed := plain.failed + res.failed + acc.mismatches
	for _, e := range []error{plain.firstErr, res.firstErr} {
		if e != nil {
			fmt.Fprintln(stdout, "first failure:", e)
		}
	}
	if len(res.reads) == 0 || len(plain.reads) == 0 {
		return nil, fmt.Errorf("no completed reads (first failure: %v)", res.firstErr)
	}

	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	sp := tr.summarize()
	lsp := ltr.summarize()

	// Layer replay: xpath, plan, core, storage, buffer, vdisk.
	reads := float64(max(acc.reads, 1))
	q := acc.q
	put("xpath.parse_us", lsp["xpath.parse"].meanUS(), "us")
	put("plan.choose_us", lsp["plan.choose"].meanUS(), "us")
	put("plan.build_us", lsp["plan.build"].meanUS(), "us")
	put("plan.refresh_us_per_commit", lsp["plan.refresh"].meanUS(), "us")
	put("plan.regret", ratio(float64(acc.regretChosen), float64(acc.regretBest)), "ratio")
	put("plan.join_pick_frac", ratio(float64(acc.joinPicks), float64(acc.predReads)), "frac")
	put("plan.pages_qerror", acc.qerrSum/reads, "ratio")
	put("core.run_us", lsp["core.run"].meanUS(), "us")
	put("core.nodes_visited", float64(q.NodesVisited)/reads, "count")
	put("core.tuples_moved", float64(q.TuplesMoved)/reads, "count")
	put("core.set_ops", float64(q.SetInserts+q.SetLookups)/reads, "count")
	put("core.spec_instances", float64(q.SpecInstances)/reads, "count")
	put("core.fallback_events", float64(q.FallbackEvents)/reads, "count")
	put("core.clusters_visited", float64(q.ClustersVisited)/reads, "count")
	put("core.clusters_skipped_frac", ratio(float64(q.ClustersSkipped), float64(q.ClustersVisited+q.ClustersSkipped)), "frac")
	put("storage.swizzles", float64(q.Swizzles)/reads, "count")
	put("storage.unswizzles", float64(q.Unswizzles)/reads, "count")
	put("storage.derived_hit_frac", ratio(float64(acc.derivedHits), float64(acc.derivedHits+acc.derivedMisses)), "frac")
	// Cluster activations served from memory (the decoded-cluster cache
	// or the pool) rather than by a page read. The pool's own hit counter
	// sees only decoded-cache misses, so it says nothing about a warm pool.
	put("buffer.hit_frac", max(0, 1-ratio(float64(q.PageReads), float64(q.ClustersVisited))), "frac")
	put("buffer.evictions", float64(q.Evictions)/reads, "count")
	put("buffer.hash_lookups", float64(q.HashLookups)/reads, "count")
	put("buffer.prefetch_withdrawn_frac", ratio(float64(q.AsyncWithdrawn), float64(q.AsyncSubmitted)), "frac")
	put("buffer.read_retries", float64(q.ReadRetries), "count")
	put("vdisk.page_reads", float64(q.PageReads)/reads, "count")
	put("vdisk.seq_read_frac", ratio(float64(q.SeqPageReads), float64(q.PageReads)), "frac")
	put("vdisk.seek_pages", ratio(float64(q.SeekDistance), float64(q.Seeks)), "pages")
	put("vdisk.io_wait_ms", ms(time.Duration(q.IOWait))/reads, "ms")
	put("vdisk.page_writes_per_commit", ratio(float64(acc.pageWrites), float64(acc.commits)), "count")
	put("txn.write_amp", ratio(float64(acc.pageWrites)*pageSize, float64(acc.commits*len(fragment))), "ratio")

	// Facade replay: engine, pathdb cursor, txn manager, server.
	var queue, exec, ttfr time.Duration
	var gang, nodes int
	var sharedV, costV time.Duration
	for _, s := range res.reads {
		queue += s.queue
		exec += s.exec
		ttfr += s.ttfr
		gang += s.gang
		sharedV += s.sharedV
		costV += s.costV
		nodes += s.count
	}
	fr := float64(len(res.reads))
	de := c1.eng
	de.Completed -= c0.eng.Completed
	de.Gangs -= c0.eng.Gangs
	de.Batched -= c0.eng.Batched
	de.Rejected -= c0.eng.Rejected
	de.Faulted -= c0.eng.Faulted
	de.OverheadV -= c0.eng.OverheadV
	if isHTTP {
		put("engine.queue_wait_us", 0, "us")
		put("engine.exec_us", 0, "us")
		put("engine.gang_size", ratio(float64(de.Completed), float64(de.Gangs)), "count")
		put("pathdb.ttfr_us", 0, "us")
		put("pathdb.drain_us", 0, "us")
	} else {
		put("engine.queue_wait_us", meanUS(queue, len(res.reads)), "us")
		put("engine.exec_us", meanUS(exec, len(res.reads)), "us")
		put("engine.gang_size", float64(gang)/fr, "count")
		put("pathdb.ttfr_us", meanUS(ttfr, len(res.reads)), "us")
		put("pathdb.drain_us", meanUS(sp["pathdb.drain"].total, len(res.reads)), "us")
	}
	put("engine.batched_frac", ratio(float64(de.Batched), float64(de.Completed)), "frac")
	put("engine.shared_v_frac", ratio(float64(sharedV), float64(costV)), "frac")
	put("engine.overhead_v_us", meanUS(time.Duration(de.OverheadV), len(res.reads)), "us")
	put("engine.rejected", float64(de.Rejected), "count")
	put("engine.faulted", float64(de.Faulted), "count")

	dCommits := float64(c1.txn.Commits - c0.txn.Commits)
	put("txn.flushes_per_commit", ratio(float64(c1.txn.Flushes-c0.txn.Flushes), dCommits), "ratio")
	put("txn.group_size", ratio(dCommits, float64(c1.txn.Groups-c0.txn.Groups)), "count")
	put("txn.aborts", float64(c1.txn.Aborts-c0.txn.Aborts), "count")
	put("txn.pinned_end", float64(c1.txn.Pinned), "count")
	put("txn.free_pages_end", float64(c1.txn.FreePage), "count")
	all, early, late := vclockPerCommit(acc.vclock)
	put("txn.vclock_per_commit_ms", all, "ms")
	put("txn.vclock_per_commit_ms_early", early, "ms")
	put("txn.vclock_per_commit_ms_late", late, "ms")

	// Cluster replay and HTTP front end.
	put("shard.stream_us", lsp["shard.stream"].meanUS(), "us")
	put("shard.insert_us", lsp["shard.insert"].meanUS(), "us")
	put("shard.fanin_ratio", ratio(float64(acc.shardFed), float64(acc.shardMerged)), "ratio")
	put("shard.skew", skew(acc.shardNodes), "ratio")
	put("shard.partials", float64(c1.partials-c0.partials), "count")
	put("server.handler_us", sp["server.handler"].meanUS(), "us")
	put("server.transport_us", sp["http.request"].meanSelfUS(), "us")
	var bytesPerNode float64
	if isHTTP {
		bytesPerNode = ratio(float64(ht.bytesOut.Load()-bytes0), float64(nodes))
	}
	put("server.bytes_per_node", bytesPerNode, "bytes")
	put("server.shed", float64(c1.routerShed-c0.routerShed), "count")

	put("storage.live_stepiters_end", float64(storage.LiveStepIters()), "count")
	tq := fr / res.wall.Seconds()
	uq := float64(len(plain.reads)) / plain.wall.Seconds()
	// Unsteady between runs, so per-layer rather than bounded end to end:
	// taken from the untraced half.
	var firsts []float64
	for _, s := range plain.reads {
		firsts = append(firsts, ms(s.ttfr))
	}
	t50, _ := quantile(firsts, 0.5)
	c95, _ := quantile(commitMS(plain.commits), 0.95)
	put("client.ttfr_p50_ms", t50, "ms")
	put("client.commit_p95_ms", c95, "ms")

	put("trace.qps", tq, "1/s")
	put("trace.untraced_qps", uq, "1/s")
	put("trace.overhead_frac", 1-tq/uq, "frac")

	return &report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

func commitMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// vclockPerCommit returns the volume clock's mean advance per commit over
// the layer replay, over its first quarter of commits and over its last
// quarter. The replay has one client, so the figures repeat exactly; under
// the facade's two clients the clock overflows int64 within seconds.
func vclockPerCommit(at []time.Duration) (all, early, late float64) {
	if len(at) < 9 {
		return 0, 0, 0
	}
	steps := make([]float64, len(at)-1)
	for k := 1; k < len(at); k++ {
		steps[k-1] = ms(at[k] - at[k-1])
	}
	mean := func(xs []float64) float64 {
		var sum float64
		for _, x := range xs {
			sum += x
		}
		return sum / float64(len(xs))
	}
	q := len(steps) / 4
	return mean(steps), mean(steps[:q]), mean(steps[len(steps)-q:])
}

// skew is the busiest shard's share of merge input over the mean share.
func skew(perShard []int64) float64 {
	var sum, top int64
	for _, v := range perShard {
		sum += v
		top = max(top, v)
	}
	if sum == 0 {
		return 0
	}
	return float64(top) * float64(len(perShard)) / float64(sum)
}

func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
