package pathdb

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"pathdb/internal/storage"
	"pathdb/internal/xmltree"
)

// settleGoroutines waits (briefly) for exiting goroutines to retire and
// returns the goroutine count.
func settleGoroutines(baseline int) int {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// dbEntryCases drive every DB-level entry point once, including each way a
// stream can end early. Under faults (ReadError 1 on a flushed pool) the
// QueryCtx and QueryStream cases must fail with the typed ErrIO; the Query
// cases run fault-free only, since their faults panic.
var dbEntryCases = []struct {
	name   string
	faults bool // also run under SetFaults{ReadError: 1}
	run    func(db *DB) error
}{
	{"QueryCtx", true, func(db *DB) error {
		_, err := db.QueryCtx(context.Background(), itemPath, QueryOptions{})
		return err
	}},
	{"QueryStream/drained", true, func(db *DB) error {
		cur, err := db.QueryStream(context.Background(), itemPath, QueryOptions{})
		if err != nil {
			return err
		}
		defer cur.Close()
		for cur.Next() {
		}
		return cur.Err()
	}},
	{"QueryStream/closed-early", true, func(db *DB) error {
		cur, err := db.QueryStream(context.Background(), "/site//description", QueryOptions{})
		if err != nil {
			return err
		}
		cur.Next()
		err = cur.Err()
		cur.Close()
		return err
	}},
	{"QueryStream/limit", true, func(db *DB) error {
		cur, err := db.QueryStream(context.Background(), "/site//description", QueryOptions{Limit: 3})
		if err != nil {
			return err
		}
		defer cur.Close()
		for cur.Next() {
		}
		if cur.Err() == nil && cur.Count() != 3 {
			return fmt.Errorf("limited stream yielded %d nodes, want 3", cur.Count())
		}
		return cur.Err()
	}},
	{"QueryStream/cancelled", true, func(db *DB) error {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cur, err := db.QueryStream(ctx, "/site//description", QueryOptions{})
		if err != nil {
			return err
		}
		defer cur.Close()
		cur.Next()
		cancel()
		for cur.Next() {
		}
		if KindOf(cur.Err()) == KindCanceled {
			return nil
		}
		return cur.Err()
	}},
	{"Query.Count", false, func(db *DB) error {
		q, err := db.Query(itemPath + " | /site//description")
		if err != nil {
			return err
		}
		if q.Count() == 0 {
			return errors.New("empty result")
		}
		return nil
	}},
	{"Query.Nodes", false, func(db *DB) error {
		q, err := db.Query(itemPath)
		if err != nil {
			return err
		}
		if len(q.Sorted().Nodes()) == 0 {
			return errors.New("empty result")
		}
		return nil
	}},
	{"Query.Each/early-stop", false, func(db *DB) error {
		q, err := db.Query("/site//description | " + itemPath)
		if err != nil {
			return err
		}
		n := 0
		q.Each(func(Node) bool { n++; return n < 5 })
		if n != 5 {
			return fmt.Errorf("Each visited %d nodes, want 5", n)
		}
		return nil
	}},
}

// TestDBQueriesLeakNothing: after every DB-level entry point — drained,
// closed early, cut by Limit, cancelled, and failed by a storage fault —
// the goroutine count and the live navigation iterators return to their
// baselines and no snapshot stays pinned.
func TestDBQueriesLeakNothing(t *testing.T) {
	db, err := GenerateXMark(XMarkConfig{ScaleFactor: 0.1, Seed: 7, EntityScale: 0.1},
		Options{BufferPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	// One commit creates the transaction manager, so every query pins a
	// real snapshot.
	if _, err := db.InsertXML(mustOne(t, db, "/site"), "<probe/>"); err != nil {
		t.Fatal(err)
	}
	g0 := runtime.NumGoroutine()
	iters0 := storage.LiveStepIters()
	for _, faults := range []bool{false, true} {
		for _, c := range dbEntryCases {
			if faults && !c.faults {
				continue
			}
			name := fmt.Sprintf("%s (faults=%v)", c.name, faults)
			if faults {
				db.ResetStats() // flushed pool: the query must read
				db.SetFaults(FaultConfig{Seed: 3, ReadError: 1})
			}
			err := c.run(db)
			db.SetFaults(FaultConfig{})
			if faults && !errors.Is(err, ErrIO) {
				t.Errorf("%s: err=%v, want ErrIO", name, err)
			} else if !faults && err != nil {
				t.Errorf("%s: %v", name, err)
			}
			if g := settleGoroutines(g0); g > g0 {
				buf := make([]byte, 1<<20)
				t.Fatalf("%s leaked goroutines: %d > %d\n%s", name, g, g0, buf[:runtime.Stack(buf, true)])
			}
			if iters := storage.LiveStepIters(); iters != iters0 {
				t.Fatalf("%s leaked navigation iterators: %d live, baseline %d", name, iters, iters0)
			}
			if p := db.TxnMetrics().Pinned; p != 0 {
				t.Fatalf("%s left %d snapshots pinned", name, p)
			}
		}
	}
}

// TestDroppedDBIsCollectable: a DB dropped after queries through every
// DB-level entry point is garbage: no executor goroutine, registry or
// cache outlives it. The finalizer sits on the DB's dictionary, which only
// the DB's own structures reference (a finalizer on the DB itself, part of
// a reference cycle, is not guaranteed to run).
func TestDroppedDBIsCollectable(t *testing.T) {
	collected := make(chan struct{})
	func() {
		db, err := GenerateXMark(XMarkConfig{ScaleFactor: 0.05, Seed: 7, EntityScale: 0.05}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(db.dict, func(*xmltree.Dictionary) { close(collected) })
		for _, c := range dbEntryCases {
			if err := c.run(db); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
	}()
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
	t.Fatal("a DB dropped after its queries was never collected")
}

// TestDBQueriesBesideUpdates: DB-level reads run concurrently with each
// other and with Updates, and each read sees exactly one pinned version:
// every commit inserts a pair of probes, so a torn read would count an odd
// number, and a reader's counts never go back in time.
func TestDBQueriesBesideUpdates(t *testing.T) {
	db := engineFixture(t)
	site := mustOne(t, db, "/site")
	const writers, perWriter, readers, perReader = 2, 8, 4, 12
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				err := db.Update(func(tx *Tx) error {
					if _, err := tx.InsertXML(site, fmt.Sprintf("<probe w='%d' i='%d'/>", w, i)); err != nil {
						return err
					}
					_, err := tx.InsertXML(site, fmt.Sprintf("<probe w='%d' i='%d' twin='1'/>", w, i))
					return err
				})
				if err != nil {
					errs <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	count := []func() (int, error){
		func() (int, error) {
			res, err := db.QueryCtx(context.Background(), "/site/probe", QueryOptions{})
			return res.Count(), err
		},
		func() (int, error) {
			cur, err := db.QueryStream(context.Background(), "/site/probe", QueryOptions{})
			if err != nil {
				return 0, err
			}
			defer cur.Close()
			for cur.Next() {
			}
			return cur.Count(), cur.Err()
		},
		func() (int, error) { return countPath(t, db, "/site/probe"), nil },
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			last := -1
			for i := 0; i < perReader; i++ {
				n, err := count[(r+i)%len(count)]()
				if err != nil {
					errs <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				if n%2 != 0 {
					errs <- fmt.Errorf("reader %d saw a torn version: %d probes (odd)", r, n)
					return
				}
				if n < last {
					errs <- fmt.Errorf("reader %d went back in time: %d after %d", r, n, last)
					return
				}
				last = n
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := countPath(t, db, "/site/probe"); n != 2*writers*perWriter {
		t.Errorf("final probe count %d, want %d", n, 2*writers*perWriter)
	}
	if p := db.TxnMetrics().Pinned; p != 0 {
		t.Errorf("%d snapshots still pinned", p)
	}
}
