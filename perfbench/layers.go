package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"pathdb"
	"pathdb/internal/core"
	"pathdb/internal/plan"
	"pathdb/internal/shard"
	"pathdb/internal/stats"
	"pathdb/internal/storage"
	"pathdb/internal/txn"
	"pathdb/internal/vdisk"
	"pathdb/internal/xmark"
	"pathdb/internal/xmlparse"
	"pathdb/internal/xmltree"
	"pathdb/internal/xpath"
)

// pageSize is the facade's default page size, which every workload uses.
const pageSize = 8192

// layerStore is a volume built straight from the layers' public
// constructors — the same document the facade imports — so one client can
// drive xpath → plan → core and txn directly.
type layerStore struct {
	dict    *xmltree.Dictionary
	st      *storage.Store
	mgr     *txn.Manager // nil until the first write
	chooser *plan.Chooser
	// led is the replay's query ledger. The chooser builds its plans over
	// a view charging led, so Chooser.Build plans bill it too.
	led  *stats.Ledger
	site storage.NodeID
}

func newLayerStore(x pathdb.XMarkConfig, frames int) (*layerStore, error) {
	dict := xmltree.NewDictionary()
	doc := xmark.Generate(dict, xmark.Config{ScaleFactor: x.ScaleFactor, Seed: x.Seed, EntityScale: x.EntityScale})
	disk := vdisk.New(vdisk.DefaultCostModel(), stats.NewLedger(), pageSize)
	st, err := storage.Import(disk, dict, doc, storage.ImportOptions{})
	if err != nil {
		return nil, err
	}
	if frames == 0 {
		frames = storage.DefaultBufferPages
	}
	st.SetBufferCapacity(frames)
	ls := &layerStore{dict: dict, st: st, led: stats.NewLedger()}
	ls.chooser = plan.NewChooser(st.SnapshotView(ls.led))
	st.ResetForRun()
	site, err := xpath.Parse(dict, "/site")
	if err != nil {
		return nil, err
	}
	rs := core.BuildPlan(st.SnapshotView(stats.NewLedger()), site.Steps, st.Roots(), core.StrategySimple, core.PlanOptions{}).Run()
	if len(rs) != 1 {
		return nil, fmt.Errorf("/site matched %d nodes", len(rs))
	}
	ls.site = rs[0].Node
	st.ResetForRun()
	return ls, nil
}

// layerStats accumulates the layer replay.
type layerStats struct {
	reads, commits int
	q              stats.Ledger // sum of per-read ledger deltas

	predReads, joinPicks int
	qerrSum              float64

	derivedHits, derivedMisses uint64
	pageWrites                 int64           // volume ledger, across commits
	vclock                     []time.Duration // volume ledger's clock after each commit
	mismatches                 int

	// plan.regret inputs: mix-weighted chosen and best-forced costs.
	regretChosen, regretBest stats.Ticks

	// Cluster replay (sharded workload only).
	shardReads, shardInserts int
	shardFed, shardMerged    int64
	shardNodes               []int64
}

// read runs one path through ParseUnion → Choose → Build → Run, billing
// led and recording a span per layer call.
func (ls *layerStore) read(path string, tr *tracer, req int64, acc *layerStats) (int, error) {
	root := tr.begin("layer.request", req, 0)
	defer tr.end(root)
	sp := tr.begin("xpath.parse", req, root.ID)
	branches, err := xpath.ParseUnion(ls.dict, path)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	if len(branches) != 1 {
		return 0, fmt.Errorf("%s: %d union branches, the replay takes one", path, len(branches))
	}
	steps := branches[0].Simplify().Steps

	ls.led.SeedAt(ls.st.Disk().Clock())
	base := ls.led.Snapshot()
	sp = tr.begin("plan.choose", req, root.ID)
	choice := ls.chooser.Choose(steps)
	tr.end(sp)
	arena := core.GetArena()
	defer core.PutArena(arena)
	sp = tr.begin("plan.build", req, root.ID)
	p, _ := ls.chooser.Build(steps, ls.st.Roots(), core.PlanOptions{Arena: arena})
	tr.end(sp)
	sp = tr.begin("core.run", req, root.ID)
	rs := p.Run()
	tr.end(sp)
	d := ls.led.Sub(base)

	acc.reads++
	acc.q.Merge(d)
	if xpath.HasPredicates(steps) {
		acc.predReads++
		if choice.PredEval == core.PredJoin {
			acc.joinPicks++
		}
	}
	est := choice.Schedule.PagesTouched
	if choice.Strategy == core.StrategyScan {
		est = choice.Scan.PagesTouched
	}
	acc.qerrSum += qerror(float64(est), float64(d.ClustersVisited))
	return len(rs), nil
}

// qerror is max(est/act, act/est), with both floored at one.
func qerror(est, act float64) float64 {
	est, act = math.Max(est, 1), math.Max(act, 1)
	return math.Max(est/act, act/est)
}

// write commits one insert through txn.Manager.Update and folds it into
// the chooser with Chooser.Refresh on the post-commit view.
func (ls *layerStore) write(tr *tracer, req int64, acc *layerStats) error {
	if ls.mgr == nil {
		m, err := txn.NewManager(ls.st, txn.Options{})
		if err != nil {
			return err
		}
		ls.mgr = m
	}
	frag, err := xmlparse.ParseString(ls.dict, fragment)
	if err != nil {
		return err
	}
	root := tr.begin("layer.request", req, 0)
	defer tr.end(root)
	w0 := ls.st.Ledger().Snapshot()
	sp := tr.begin("txn.update", req, root.ID)
	err = ls.mgr.Update(func(tx *txn.Tx) error {
		_, err := tx.InsertSubtree(ls.site, storage.InvalidNodeID, frag.Children[0])
		return err
	})
	tr.end(sp)
	if err != nil {
		return err
	}
	acc.pageWrites += ls.st.Ledger().Sub(w0).PageWrites
	acc.vclock = append(acc.vclock, time.Duration(ls.st.Ledger().Total()))
	sp = tr.begin("plan.refresh", req, root.ID)
	ls.chooser.Refresh(ls.st.SnapshotView(ls.led))
	tr.end(sp)
	acc.commits++
	return nil
}

func (ls *layerStore) close() {
	if ls.mgr != nil {
		ls.mgr.Close()
	}
}

// runLayers replays n requests of the schedule on one client
// through the layers' public functions, then replays every distinct path
// under the chosen plan and every forced strategy × predicate evaluator
// for plan.regret.
func runLayers(sch *schedule, ls *layerStore, n int, expect map[string]int, tr *tracer) (*layerStats, error) {
	w := sch.w
	if w.warm {
		// The facade's discarded warm-up, on this store: one pass over
		// the pattern. Its reads are checked like the facade's.
		warm := &layerStats{}
		for k := 0; k < len(sch.pattern); k++ {
			if err := ls.replay(sch, nil, warm, expect); err != nil {
				return nil, err
			}
		}
		if warm.mismatches > 0 {
			return nil, fmt.Errorf("layer replay warm-up: %d reads differ from the oracle", warm.mismatches)
		}
	}
	acc := &layerStats{}
	dc, _, _ := ls.st.Derived()
	h0, m0 := dc.Stats()
	for k := 0; k < n; k++ {
		if err := ls.replay(sch, tr, acc, expect); err != nil {
			return nil, err
		}
	}
	h1, m1 := dc.Stats()
	acc.derivedHits, acc.derivedMisses = h1-h0, m1-m0

	costs := map[string][2]stats.Ticks{}
	for _, path := range w.paths() {
		chosen, best, err := ls.regret(path)
		if err != nil {
			return nil, fmt.Errorf("regret replay %s: %w", path, err)
		}
		costs[path] = [2]stats.Ticks{chosen, best}
	}
	for _, path := range w.pattern() {
		acc.regretChosen += costs[path][0]
		acc.regretBest += costs[path][1]
	}
	return acc, nil
}

// replay runs the schedule's next request.
func (ls *layerStore) replay(sch *schedule, tr *tracer, acc *layerStats, expect map[string]int) error {
	i, isWrite, path := sch.next()
	if isWrite {
		if err := ls.write(tr, i, acc); err != nil {
			return fmt.Errorf("layer replay write %d: %w", i, err)
		}
		return nil
	}
	got, err := ls.read(path, tr, i, acc)
	if err != nil {
		return fmt.Errorf("layer replay %s: %w", path, err)
	}
	if got != expect[path] {
		acc.mismatches++
	}
	return nil
}

// regret returns the virtual cost of the chooser's plan for path and of
// the cheapest forced strategy × predicate evaluator. Each variant runs
// twice back to back and the second run is measured, so every variant is
// priced on the state its own first run leaves — the same warm state for
// all of them.
func (ls *layerStore) regret(path string) (chosen, best stats.Ticks, err error) {
	p, err := xpath.Parse(ls.dict, path)
	if err != nil {
		return 0, 0, err
	}
	steps := p.Simplify().Steps
	preds := []core.PredEval{core.PredNested}
	if xpath.HasPredicates(steps) {
		preds = append(preds, core.PredJoin)
	}
	choice := ls.chooser.Choose(steps)
	chosen = ls.measure(steps, choice.Strategy, choice.PredEval)
	best = -1
	for _, s := range []core.Strategy{core.StrategySimple, core.StrategySchedule, core.StrategyScan} {
		for _, pe := range preds {
			if c := ls.measure(steps, s, pe); best < 0 || c < best {
				best = c
			}
		}
	}
	return chosen, best, nil
}

func (ls *layerStore) measure(steps []xpath.Step, s core.Strategy, pe core.PredEval) stats.Ticks {
	var cost stats.Ticks
	for r := 0; r < 2; r++ {
		led := stats.NewLedger()
		led.SeedAt(ls.st.Disk().Clock())
		base := led.Total()
		arena := core.GetArena()
		core.BuildPlan(ls.st.SnapshotView(led), steps, ls.st.Roots(), s, core.PlanOptions{Arena: arena, PredEval: pe}).Run()
		core.PutArena(arena)
		cost = led.Total() - base
	}
	return cost
}

// runClusterLayer drives the sharded request sequence on one client
// straight through shard.Cluster.Stream and Cluster.Insert.
func runClusterLayer(sch *schedule, cl *shard.Cluster, n int, expect map[string]int, tr *tracer, acc *layerStats) error {
	ctx := context.Background()
	acc.shardNodes = make([]int64, cl.Shards())
	for k := 0; k < n; k++ {
		i, isWrite, path := sch.next()
		root := tr.begin("shard.request", i, 0)
		if isWrite {
			sp := tr.begin("shard.insert", i, root.ID)
			_, err := cl.Insert(ctx, "/site", fragment)
			tr.end(sp)
			tr.end(root)
			if err != nil {
				return fmt.Errorf("cluster insert %d: %w", i, err)
			}
			acc.shardInserts++
			continue
		}
		sp := tr.begin("shard.stream", i, root.ID)
		sc, err := cl.Stream(ctx, path, pathdb.QueryOptions{})
		if err != nil {
			tr.end(sp)
			tr.end(root)
			return fmt.Errorf("cluster stream %s: %w", path, err)
		}
		for sc.Next() {
		}
		err = sc.Err()
		sc.Close()
		tr.end(sp)
		tr.end(root)
		if err != nil {
			return fmt.Errorf("cluster stream %s: %w", path, err)
		}
		sum, ok := sc.Summary()
		if !ok {
			return fmt.Errorf("cluster stream %s: no summary", path)
		}
		acc.shardReads++
		acc.shardMerged += int64(sum.Count)
		for _, ps := range sum.PerShard {
			acc.shardFed += int64(ps.Count)
			acc.shardNodes[ps.Shard] += int64(ps.Count)
		}
		if sum.Count != expect[path] {
			acc.mismatches++
		}
	}
	return nil
}
