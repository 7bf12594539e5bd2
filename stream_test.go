package pathdb

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"pathdb/internal/storage"
)

// streamIDs drains a cursor and returns the yielded node IDs in order.
func streamIDs(t *testing.T, c *Cursor) []uint64 {
	t.Helper()
	var ids []uint64
	for c.Next() {
		ids = append(ids, c.Node().ID())
	}
	if err := c.Err(); err != nil {
		t.Fatalf("stream failed: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return ids
}

func resultIDs(res ExecResult) []uint64 {
	ids := make([]uint64, len(res.Nodes))
	for i, n := range res.Nodes {
		ids[i] = n.ID()
	}
	return ids
}

func sameSet(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[uint64]int, len(a))
	for _, id := range a {
		set[id]++
	}
	for _, id := range b {
		if set[id] == 0 {
			return false
		}
		set[id]--
	}
	return true
}

func sameSeq(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStreamMatchesDo: Session.Stream yields exactly Do's node set (and,
// sorted, Do's node sequence), for plain paths and unions.
func TestStreamMatchesDo(t *testing.T) {
	db := engineFixture(t)
	eng := db.NewEngine(EngineConfig{MaxInFlight: 4})
	defer eng.Close()
	ses := eng.NewSession()

	paths := []string{
		"/site/regions//item",
		"/site//description",
		"/site/people/person/name | /site/regions//item/name",
		"/site//item | /site/regions//item", // overlapping union: dedup matters
	}
	for _, path := range paths {
		for _, sorted := range []bool{false, true} {
			opts := QueryOptions{Sorted: sorted}
			want, err := ses.Do(context.Background(), path, opts)
			if err != nil {
				t.Fatalf("Do(%q): %v", path, err)
			}
			cur, err := ses.Stream(context.Background(), path, opts)
			if err != nil {
				t.Fatalf("Stream(%q): %v", path, err)
			}
			got := streamIDs(t, cur)
			if sorted {
				if !sameSeq(got, resultIDs(want)) {
					t.Errorf("sorted stream of %q: sequence differs from Do (%d vs %d nodes)",
						path, len(got), len(want.Nodes))
				}
			} else if !sameSet(got, resultIDs(want)) {
				t.Errorf("stream of %q: node set differs from Do (%d vs %d nodes)",
					path, len(got), len(want.Nodes))
			}
			if sum, ok := cur.Summary(); !ok {
				t.Errorf("stream of %q: no summary after drain", path)
			} else if sum.Strategy == Auto {
				t.Errorf("stream of %q: summary strategy unresolved", path)
			}
		}
	}
}

// TestStreamLimit: Limit stops production after N nodes; a sorted limited
// stream yields exactly the first N of the full sorted result.
func TestStreamLimit(t *testing.T) {
	db := engineFixture(t)
	eng := db.NewEngine(EngineConfig{})
	defer eng.Close()
	ses := eng.NewSession()

	full, err := ses.Do(context.Background(), itemPath, QueryOptions{Sorted: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Nodes) < 10 {
		t.Fatalf("fixture too small: %d items", len(full.Nodes))
	}

	const limit = 7
	cur, err := ses.Stream(context.Background(), itemPath, QueryOptions{Sorted: true, Limit: limit})
	if err != nil {
		t.Fatal(err)
	}
	got := streamIDs(t, cur)
	if !sameSeq(got, resultIDs(full)[:limit]) {
		t.Fatalf("limited sorted stream: got %d nodes, want the first %d of the sorted result", len(got), limit)
	}

	// Unsorted: the limit caps production without a guaranteed prefix.
	cur, err = ses.Stream(context.Background(), itemPath, QueryOptions{Limit: limit})
	if err != nil {
		t.Fatal(err)
	}
	if got := streamIDs(t, cur); len(got) != limit {
		t.Fatalf("limited stream yielded %d nodes, want %d", len(got), limit)
	}

	// Do shares the same Limit semantics (it is stream-then-drain).
	res, err := ses.Do(context.Background(), itemPath, QueryOptions{Sorted: true, Limit: limit})
	if err != nil {
		t.Fatal(err)
	}
	if !sameSeq(resultIDs(res), resultIDs(full)[:limit]) {
		t.Fatalf("Do with Limit: got %d nodes, want first %d sorted", len(res.Nodes), limit)
	}
}

// TestStreamEarlyClose: closing a cursor mid-stream (including immediately)
// unblocks the producer, returns pooled navigation iterators, and leaves no
// goroutines behind — the leak-free property Close promises.
func TestStreamEarlyClose(t *testing.T) {
	db := engineFixture(t)
	eng := db.NewEngine(EngineConfig{MaxInFlight: 4})
	defer eng.Close()
	ses := eng.NewSession()

	baseline := runtime.NumGoroutine()
	baseIters := storage.LiveStepIters()

	for _, k := range []int{0, 1, 3, 17} {
		cur, err := ses.Stream(context.Background(), "/site//description", QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k && cur.Next(); i++ {
		}
		if err := cur.Close(); err != nil {
			t.Fatal(err)
		}
		if cur.Next() {
			t.Fatal("Next after Close must report false")
		}
		if err := cur.Close(); err != nil {
			t.Fatal("Close must be idempotent")
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseline {
		buf := make([]byte, 1<<20)
		t.Fatalf("early Close leaked goroutines: %d > %d\n%s",
			g, baseline, buf[:runtime.Stack(buf, true)])
	}
	if iters := storage.LiveStepIters(); iters != baseIters {
		t.Fatalf("early Close leaked navigation iterators: %d live, baseline %d", iters, baseIters)
	}
}

// TestStreamFaultTyped: a mid-stream storage fault surfaces as the typed
// taxonomy error on Err, and the failed cursor still cleans up. Seeds
// sweep the fault plane so the cancel path runs at varying depths.
func TestStreamFaultTyped(t *testing.T) {
	db, err := GenerateXMark(XMarkConfig{ScaleFactor: 0.1, Seed: 7, EntityScale: 0.1},
		Options{BufferPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	eng := db.NewEngine(EngineConfig{})
	defer eng.Close()
	ses := eng.NewSession()
	baseIters := storage.LiveStepIters()

	// Certain failure: the stream must end with a typed ErrIO.
	db.SetFaults(FaultConfig{Seed: 3, ReadError: 1})
	cur, err := ses.Stream(context.Background(), itemPath, QueryOptions{Strategy: Schedule})
	if err == nil {
		for cur.Next() {
		}
		err = cur.Err()
		cur.Close()
	}
	if !errors.Is(err, ErrIO) {
		t.Fatalf("stream under ReadError=1: err=%v, want ErrIO", err)
	}

	// Seeded sweep at moderate rates: every outcome must be either clean or
	// typed io/corrupt, with no iterator leaks either way.
	for seed := uint64(1); seed <= 5; seed++ {
		db.SetFaults(FaultConfig{Seed: seed, ReadError: 0.05, Corrupt: 0.02})
		cur, err := ses.Stream(context.Background(), itemPath, QueryOptions{Strategy: Schedule})
		if err == nil {
			for i := 0; i < 10 && cur.Next(); i++ {
			}
			cur.Close() // early close mid-fault-sweep
			err = cur.Err()
		}
		if err != nil && KindOf(err) != KindIO && KindOf(err) != KindCorrupt {
			t.Fatalf("seed %d: err=%v kind=%v, want io/corrupt", seed, err, KindOf(err))
		}
	}
	db.SetFaults(FaultConfig{})
	if iters := storage.LiveStepIters(); iters != baseIters {
		t.Fatalf("fault sweep leaked navigation iterators: %d live, baseline %d", iters, baseIters)
	}
}

// TestQueryStreamMatchesQueryCtx: QueryStream and QueryCtx both agree with
// the reference evaluator on node set and sorted order, for plain paths and
// unions; a limited stream stops at N, and an early Close returns its
// pooled resources.
func TestQueryStreamMatchesQueryCtx(t *testing.T) {
	db := mustLoad(t, `<a><b><c/><c/></b><b/><d><b><c/></b></d></a>`)
	paths := []string{"/a/b", "/a//c", "/a/b | /a/d/b", "/a//b | /a/b"}
	for _, path := range paths {
		for _, sorted := range []bool{false, true} {
			opts := QueryOptions{Sorted: sorted}
			want := refRun(t, db, path, opts).ids
			res, err := db.QueryCtx(context.Background(), path, opts)
			if err != nil {
				t.Fatal(err)
			}
			cur, err := db.QueryStream(context.Background(), path, opts)
			if err != nil {
				t.Fatal(err)
			}
			for entry, got := range map[string][]uint64{"QueryCtx": resultIDs(res), "QueryStream": streamIDs(t, cur)} {
				if sorted && !sameSeq(got, want) {
					t.Errorf("sorted %s(%q) differs from the reference", entry, path)
				} else if !sameSet(got, want) {
					t.Errorf("%s(%q) node set differs from the reference", entry, path)
				}
			}
		}
	}

	// Limit stops pulling the operator tree.
	cur, err := db.QueryStream(context.Background(), "/a//c", QueryOptions{Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := streamIDs(t, cur); len(got) != 2 {
		t.Fatalf("limited stream yielded %d nodes, want 2", len(got))
	}

	// Early close releases pooled iterators.
	baseIters := storage.LiveStepIters()
	cur, err = db.QueryStream(context.Background(), "/a//c", QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cur.Next()
	cur.Close()
	if iters := storage.LiveStepIters(); iters != baseIters {
		t.Fatalf("early Close leaked iterators: %d live, baseline %d", iters, baseIters)
	}
}

// TestStreamCancelMidStream: cancelling the caller's context terminates a
// live stream with the typed canceled/timeout error instead of hanging.
func TestStreamCancelMidStream(t *testing.T) {
	db := engineFixture(t)
	eng := db.NewEngine(EngineConfig{})
	defer eng.Close()
	ses := eng.NewSession()

	ctx, cancel := context.WithCancel(context.Background())
	cur, err := ses.Stream(ctx, "/site//description", QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !cur.Next() {
		t.Fatalf("no first node: %v", cur.Err())
	}
	cancel()
	for cur.Next() {
	}
	if k := KindOf(cur.Err()); cur.Err() != nil && k != KindCanceled && k != KindTimeout {
		t.Fatalf("cancelled stream err=%v kind=%v, want canceled", cur.Err(), k)
	}
	cur.Close()
}
