package pathdb

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"pathdb/internal/core"
	"pathdb/internal/ordpath"
	"pathdb/internal/stats"
	"pathdb/internal/storage"
	"pathdb/internal/xpath"
)

// refResult is what the reference evaluator reports for one query.
type refResult struct {
	ids         []uint64
	costV, cpuV stats.Ticks
	strategy    Strategy
}

// refRun is the reference evaluator. For one absolute single path it is
// the operator tree core.BuildPlan compiles over the base store, pulled on
// the caller's goroutine and charged to the volume ledger, with the
// strategy and predicate evaluator left open by opts resolved by the cost
// model. An unsorted query with a Limit stops pulling after N matches; a
// sorted one sees everything, sorts, and keeps the first N in document
// order. A union is the node set of its branches' reference results, in
// document order when sorted, cut at Limit; its costs are not modelled.
func refRun(t testing.TB, db *DB, path string, opts QueryOptions) refResult {
	t.Helper()
	branches, err := xpath.ParseUnion(db.dict, path)
	if err != nil {
		t.Fatalf("reference path %q: %v", path, err)
	}
	if len(branches) == 1 {
		led := db.store.Ledger()
		start := led.Snapshot()
		rs, strat := refPlan(db, branches[0].Simplify().Steps, opts)
		end := led.Snapshot()
		return refResult{ids: refIDs(rs, opts.Limit), costV: end.Now - start.Now, cpuV: end.CPU - start.CPU, strategy: strat}
	}
	seen := map[storage.NodeID]bool{}
	var all []core.Result
	for _, b := range branches {
		rs, _ := refPlan(db, b.Simplify().Steps, QueryOptions{Strategy: opts.Strategy, PredEval: opts.PredEval, MemLimit: opts.MemLimit})
		for _, r := range rs {
			if !seen[r.Node] {
				seen[r.Node] = true
				all = append(all, r)
			}
		}
	}
	if opts.Sorted {
		sort.Slice(all, func(i, j int) bool { return ordpath.Compare(all[i].Ord, all[j].Ord) < 0 })
	}
	return refResult{ids: refIDs(all, opts.Limit)}
}

func refIDs(rs []core.Result, limit int) []uint64 {
	if limit > 0 && len(rs) > limit {
		rs = rs[:limit]
	}
	ids := make([]uint64, len(rs))
	for i, r := range rs {
		ids[i] = uint64(r.Node)
	}
	return ids
}

// refPlan runs one branch of the reference evaluator.
func refPlan(db *DB, steps []xpath.Step, opts QueryOptions) ([]core.Result, Strategy) {
	strat, pred := opts.Strategy, opts.PredEval.internal()
	if strat == Auto || (pred == core.PredAuto && xpath.HasPredicates(steps)) {
		c := db.getChooser().Choose(steps)
		if strat == Auto {
			strat = fromCore(c.Strategy)
		}
		if pred == core.PredAuto {
			pred = c.PredEval
		}
	}
	arena := core.GetArena()
	defer core.PutArena(arena)
	plan := core.BuildPlan(db.store, steps, db.store.Roots(), strat.internal(), core.PlanOptions{
		MemLimit:    opts.MemLimit,
		Arena:       arena,
		PredEval:    pred,
		SortResults: opts.Sorted,
	})
	root := plan.Root()
	root.Open()
	var rs []core.Result
	for {
		inst, ok := root.Next()
		if !ok {
			break
		}
		rs = append(rs, core.Result{Node: inst.NR, Ord: inst.Ord})
		if opts.Limit > 0 && !opts.Sorted && len(rs) >= opts.Limit {
			break
		}
	}
	root.Close()
	// A plan stopped early leaves cluster prefetches in flight; withdraw
	// them so they cannot surface inside the next query.
	db.store.CancelRequests()
	return rs, strat
}

// refPaths are the paper's queries — Q6', Q7's three paths, Q15 — plus the
// branching-predicate mix.
var refPaths = []string{
	"/site/regions//item",
	"/site//description",
	"/site//annotation",
	"/site//emailaddress",
	"/site/closed_auctions/closed_auction/annotation/description/parlist/listitem/parlist/listitem/text/emph/keyword",
	`/site//item[.//keyword="golden"]`,
	"/site//item[mailbox/mail//keyword]",
	"/site//parlist[(listitem/parlist){1,2}]",
}

// refFixture is a 127-page XMark document, so a 64-frame pool evicts. The
// cost model's statistics walk runs up front: it advances the device
// clock, and a query charged straight to the volume ledger (the reference)
// would be billed for that device time, where the executor seeds each
// query's ledger at the device's current instant.
func refFixture(t testing.TB, frames int) *DB {
	t.Helper()
	db, err := GenerateXMark(XMarkConfig{ScaleFactor: 0.2, Seed: 42, EntityScale: 0.1},
		Options{BufferPages: frames})
	if err != nil {
		t.Fatal(err)
	}
	db.getChooser()
	db.ResetStats()
	return db
}

// refEntry runs one query through a DB-level entry point and reports its
// node sequence plus, where the entry point exposes one, its summary.
type refEntry struct {
	name  string
	limit bool // the entry point takes QueryOptions.Limit
	run   func(t *testing.T, db *DB, path string, opts QueryOptions) ([]uint64, *ExecResult)
}

var refEntries = []refEntry{
	{"QueryCtx", true, func(t *testing.T, db *DB, path string, opts QueryOptions) ([]uint64, *ExecResult) {
		res, err := db.QueryCtx(context.Background(), path, opts)
		if err != nil {
			t.Fatalf("QueryCtx(%q): %v", path, err)
		}
		return resultIDs(res), &res
	}},
	{"QueryStream", true, func(t *testing.T, db *DB, path string, opts QueryOptions) ([]uint64, *ExecResult) {
		cur, err := db.QueryStream(context.Background(), path, opts)
		if err != nil {
			t.Fatalf("QueryStream(%q): %v", path, err)
		}
		ids := streamIDs(t, cur)
		sum, ok := cur.Summary()
		if !ok {
			t.Fatalf("QueryStream(%q): no summary after drain", path)
		}
		return ids, &sum
	}},
	{"Query", false, func(t *testing.T, db *DB, path string, opts QueryOptions) ([]uint64, *ExecResult) {
		q, err := db.Query(path)
		if err != nil {
			t.Fatal(err)
		}
		q.WithStrategy(opts.Strategy)
		if opts.Sorted {
			q.Sorted()
		}
		var ids []uint64
		for _, n := range q.Nodes() {
			ids = append(ids, n.ID())
		}
		return ids, nil
	}},
}

// TestDBQueriesMatchReference pins the cost of every DB-level entry point
// to the reference evaluator: the paper's queries under Auto and each
// forced strategy, sorted and unsorted, with and without Limit, on a
// 64-frame pool reset before every query and on a warm default pool. A
// reference DB and the DB under test run the identical case sequence in
// lockstep, so after every case the node sequence, the query's CostV and
// CPUV, and the cumulative CostReport must agree exactly.
func TestDBQueriesMatchReference(t *testing.T) {
	pools := []struct {
		name   string
		frames int
		cold   bool
	}{{"cold64", 64, true}, {"warm", 0, false}}
	for _, e := range refEntries {
		for _, pool := range pools {
			t.Run(e.name+"/"+pool.name, func(t *testing.T) {
				t.Parallel()
				ref, sut := refFixture(t, pool.frames), refFixture(t, pool.frames)
				for _, path := range refPaths {
					for _, strat := range []Strategy{Auto, Simple, Schedule, Scan} {
						for _, sorted := range []bool{false, true} {
							for _, limit := range []int{0, 10} {
								if limit > 0 && !e.limit {
									continue
								}
								opts := QueryOptions{Strategy: strat, Sorted: sorted, Limit: limit}
								name := fmt.Sprintf("%s %+v", path, opts)
								if pool.cold {
									ref.ResetStats()
									sut.ResetStats()
								}
								want := refRun(t, ref, path, opts)
								ids, sum := e.run(t, sut, path, opts)
								if !sameSeq(ids, want.ids) {
									t.Fatalf("%s: %d nodes differ from the reference's %d", name, len(ids), len(want.ids))
								}
								if sum != nil {
									if sum.CostV != want.costV || sum.CPUV != want.cpuV {
										t.Fatalf("%s: CostV/CPUV %v/%v, reference %v/%v", name, sum.CostV, sum.CPUV, want.costV, want.cpuV)
									}
									if sum.Strategy != want.strategy {
										t.Fatalf("%s: strategy %v, reference %v", name, sum.Strategy, want.strategy)
									}
								}
								if got, w := sut.CostReport(), ref.CostReport(); got != w {
									t.Fatalf("%s: CostReport\n got %#v\nwant %#v", name, got, w)
								}
							}
						}
					}
				}
			})
		}
	}
}

// TestDBUnionsMatchReference: unions keep the reference's node set, and
// its document order when sorted, through every DB-level entry point and
// strategy. Their costs are the engine's gang accounting (a shared group
// bills pooled I/O to SharedV), so only results are compared.
func TestDBUnionsMatchReference(t *testing.T) {
	db := refFixture(t, 0)
	unions := []string{
		"/site/people/person/name | /site/regions//item/name",
		"/site//item | /site/regions//item",
		"/site//description | /site//annotation | /site//emailaddress",
	}
	for _, e := range refEntries {
		for _, path := range unions {
			for _, strat := range []Strategy{Auto, Simple, Schedule, Scan} {
				for _, sorted := range []bool{false, true} {
					opts := QueryOptions{Strategy: strat, Sorted: sorted}
					want := refRun(t, db, path, opts).ids
					got, _ := e.run(t, db, path, opts)
					if sorted && !sameSeq(got, want) {
						t.Errorf("%s(%q) %v: sorted sequence differs from the reference", e.name, path, opts)
					} else if !sameSet(got, want) {
						t.Errorf("%s(%q) %v: %d nodes, reference %d", e.name, path, opts, len(got), len(want))
					}
				}
			}
		}
	}
}
