package txn

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pathdb/internal/stats"
	"pathdb/internal/storage"
	"pathdb/internal/vdisk"
	"pathdb/internal/xmltree"
	"pathdb/internal/xpath"
)

// fixture imports a small document and returns the store plus the root
// element's NodeID (the insertion parent for the tests).
func fixture(t testing.TB, pageSize int) (*storage.Store, *xmltree.Dictionary, storage.NodeID) {
	t.Helper()
	dict := xmltree.NewDictionary()
	b := xmltree.NewBuilder(dict)
	b.Begin("root")
	for i := 0; i < 10; i++ {
		b.Leaf("x", strings.Repeat("d", 24))
	}
	b.End()
	disk := vdisk.New(vdisk.DefaultCostModel(), stats.NewLedger(), pageSize)
	st, err := storage.Import(disk, dict, b.Doc(), storage.ImportOptions{PageSize: pageSize, Layout: storage.LayoutContiguous, Seed: 7})
	if err != nil {
		t.Fatalf("Import: %v", err)
	}
	root := rootElem(t, st)
	return st, dict, root
}

func rootElem(t testing.TB, st *storage.Store) storage.NodeID {
	t.Helper()
	c, ok := st.Step(st.Swizzle(st.Root()), xpath.Child, xpath.Wildcard()).Next()
	if !ok {
		t.Fatal("no root element")
	}
	return c.ID()
}

// insFrag builds <ins>v{i}</ins>. The tag must be pre-interned (the
// dictionary is not safe for concurrent interning).
func insFrag(tag xmltree.TagID, i int) *xmltree.Node {
	e := xmltree.NewElement(tag)
	e.AppendChild(xmltree.NewText(fmt.Sprintf("v%d", i)))
	return e
}

func commitOne(m *Manager, root storage.NodeID, tag xmltree.TagID, i int) error {
	return m.Update(func(tx *Tx) error {
		_, err := tx.InsertSubtree(root, storage.InvalidNodeID, insFrag(tag, i))
		return err
	})
}

func countIns(m *Manager, tag xmltree.TagID) int {
	snap := m.Snapshot()
	defer snap.Release()
	return snap.View(stats.NewLedger()).Export().CountTag(tag)
}

func TestUpdateCommitVisible(t *testing.T) {
	st, dict, root := fixture(t, 512)
	m, err := NewManager(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ins := dict.Intern("ins")
	for i := 0; i < 3; i++ {
		if err := commitOne(m, root, ins, i); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	if got := countIns(m, ins); got != 3 {
		t.Fatalf("ins after 3 commits = %d, want 3", got)
	}
	mt := m.Metrics()
	if mt.Commits != 3 || mt.Epoch != 3 {
		t.Fatalf("metrics = %+v, want 3 commits at epoch 3", mt)
	}
}

// TestStagingBillsOwnTime: with a 4-frame pool every commit's staging
// misses the pool and waits on the device. The volume ledger must grow by
// the commit's own time — its staging CPU, its waits and its writes —
// never by the device's absolute instant, which would make the volume
// clock grow quadratically with the commit count.
func TestStagingBillsOwnTime(t *testing.T) {
	st, dict, root := fixture(t, 512)
	st.SetBufferCapacity(4)
	m, err := NewManager(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ins := dict.Intern("ins")
	vol, disk := st.Ledger(), st.Disk()
	misses0 := vol.Snapshot().BufferMisses
	for i := 0; i < 40; i++ {
		before, dev := vol.Snapshot(), disk.Clock()
		if err := commitOne(m, root, ins, i); err != nil {
			t.Fatal(err)
		}
		d := vol.Sub(before)
		// Waits and writes occupy the device for at least as long as they
		// advance the volume clock; CPU is billed on top.
		if own := disk.Clock() - dev + d.CPU; d.Now > own {
			t.Fatalf("commit %d grew the volume clock by %v, more than its own %v (device at %v)",
				i, d.Now, own, dev)
		}
	}
	if vol.Snapshot().BufferMisses == misses0 {
		t.Fatal("no staging read missed the pool; the test exercises nothing")
	}
	if got := countIns(m, ins); got != 40 {
		t.Fatalf("ins = %d, want 40", got)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	st, dict, root := fixture(t, 512)
	m, err := NewManager(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ins := dict.Intern("ins")

	old := m.Snapshot() // pinned before any commit
	for i := 0; i < 5; i++ {
		if err := commitOne(m, root, ins, i); err != nil {
			t.Fatal(err)
		}
	}
	if got := old.View(stats.NewLedger()).Export().CountTag(ins); got != 0 {
		t.Fatalf("pre-commit snapshot sees %d inserts, want 0", got)
	}
	if got := countIns(m, ins); got != 5 {
		t.Fatalf("fresh snapshot sees %d inserts, want 5", got)
	}
	if p := m.Metrics().Pinned; p != 1 {
		t.Fatalf("pinned = %d, want 1", p)
	}
	old.Release()
	old.Release() // idempotent
	if p := m.Metrics().Pinned; p != 0 {
		t.Fatalf("pinned after release = %d, want 0", p)
	}
}

func TestAbortRollsBack(t *testing.T) {
	st, dict, root := fixture(t, 512)
	m, err := NewManager(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ins := dict.Intern("ins")
	sentinel := errors.New("boom")
	err = m.Update(func(tx *Tx) error {
		if _, err := tx.InsertSubtree(root, storage.InvalidNodeID, insFrag(ins, 0)); err != nil {
			return err
		}
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("Update returned %v, want the callback error", err)
	}
	if got := countIns(m, ins); got != 0 {
		t.Fatalf("aborted insert visible: count = %d", got)
	}
	// A read-only transaction commits nothing and bumps no epoch.
	if err := m.Update(func(tx *Tx) error { return nil }); err != nil {
		t.Fatal(err)
	}
	mt := m.Metrics()
	if mt.Aborts != 1 || mt.Commits != 0 || mt.Epoch != 0 {
		t.Fatalf("metrics = %+v, want 1 abort, 0 commits, epoch 0", mt)
	}
}

func TestUpdateAfterClose(t *testing.T) {
	st, _, _ := fixture(t, 512)
	m, err := NewManager(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	if err := m.Update(func(tx *Tx) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Update after Close: %v, want ErrClosed", err)
	}
	m.Snapshot().Release() // reads keep working
}

// TestGroupCommitBatching drives concurrent writers and requires commits to
// share log flushes: mean flushes per commit strictly below one. It runs on
// one processor as well, where a writer is scheduled only when the leader
// yields, and on every processor the machine has.
func TestGroupCommitBatching(t *testing.T) {
	for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			testGroupCommitBatching(t)
		})
	}
}

func testGroupCommitBatching(t *testing.T) {
	st, dict, root := fixture(t, 1024)
	m, err := NewManager(st, Options{GroupWindow: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ins := dict.Intern("ins")

	const writers, perWriter = 4, 25
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := commitOne(m, root, ins, w*1000+i); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	mt := m.Metrics()
	if mt.Commits != writers*perWriter {
		t.Fatalf("commits = %d, want %d", mt.Commits, writers*perWriter)
	}
	if fpc := mt.FlushesPerCommit(); fpc >= 1 {
		t.Fatalf("flushes per commit = %.2f (groups=%d flushes=%d), want < 1 with %d writers",
			fpc, mt.Groups, mt.Flushes, writers)
	}
	if mt.MaxGroup < 2 {
		t.Fatalf("max group = %d, want >= 2", mt.MaxGroup)
	}
	if got := countIns(m, ins); got != writers*perWriter {
		t.Fatalf("ins = %d, want %d", got, writers*perWriter)
	}
}

// TestLoneCommitSkipsWindow: with no other writer staging, the leader
// flushes at once instead of sleeping out the group window.
func TestLoneCommitSkipsWindow(t *testing.T) {
	st, dict, root := fixture(t, 1024)
	const window = 200 * time.Millisecond
	m, err := NewManager(st, Options{GroupWindow: window})
	if err != nil {
		t.Fatal(err)
	}
	ins := dict.Intern("ins")
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if err := commitOne(m, root, ins, i); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(t0); d >= window/4 {
			t.Fatalf("lone commit %d took %v, want well inside the %v window", i, d, window)
		}
	}
	if mt := m.Metrics(); mt.Commits != 3 || mt.Groups != 3 {
		t.Fatalf("commits=%d groups=%d, want 3 and 3", mt.Commits, mt.Groups)
	}
}

// TestConcurrentReadersWriters runs 8 readers against 2 writers. Because
// every commit inserts exactly one <ins> node and bumps the epoch by one,
// a snapshot is consistent iff its count equals its epoch — any torn read
// breaks the equality.
func TestConcurrentReadersWriters(t *testing.T) {
	st, dict, root := fixture(t, 512)
	m, err := NewManager(st, Options{GroupWindow: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ins := dict.Intern("ins")

	const writers, perWriter, readers = 2, 20, 8
	stop := make(chan struct{})
	errCh := make(chan error, readers+writers)

	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := m.Snapshot()
				got := snap.View(stats.NewLedger()).Export().CountTag(ins)
				epoch := snap.Epoch()
				snap.Release()
				if uint64(got) != epoch {
					errCh <- fmt.Errorf("torn snapshot: count %d at epoch %d", got, epoch)
					return
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := commitOne(m, root, ins, w*1000+i); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	rg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if got := countIns(m, ins); got != writers*perWriter {
		t.Fatalf("ins = %d, want %d", got, writers*perWriter)
	}
}

// TestCrashRecoveryMatrix arms the write-crash fault at every cut point in
// a commit sequence, reopens the volume, and checks the durability
// contract: the recovered document is exactly the document after some
// prefix of commit order, and that prefix covers at least every hard-acked
// commit (acked while no write had been dropped yet). The recovered volume
// must also accept new transactions. Inputs:
//
//   - inserts: one small insert per commit;
//   - mixed: multi-page inserts (extension pages) and inserts that split
//     full pages, interleaved with deletes of whole multi-page subtrees;
//   - recovery-crash: the inserts sequence, with recovery itself crashed
//     at every write of its fresh checkpoint in turn; every Open after
//     such a crash must land on the same prefix.
func TestCrashRecoveryMatrix(t *testing.T) {
	t.Run("inserts", func(t *testing.T) {
		runCrashMatrix(t, crashInput{commits: 8, step: insertStep})
	})
	t.Run("mixed", func(t *testing.T) {
		runCrashMatrix(t, crashInput{commits: 9, step: mixedStep})
	})
	t.Run("recovery-crash", func(t *testing.T) {
		runCrashMatrix(t, crashInput{commits: 8, step: insertStep, crashRecovery: true})
	})
}

type crashInput struct {
	commits int
	// step commits the i-th transaction of the sequence.
	step func(m *Manager, dict *xmltree.Dictionary, root storage.NodeID, i int) error
	// crashRecovery crashes the recovering Open too, after 0, 1, 2, ...
	// of its writes, until one Open completes without a dropped write.
	crashRecovery bool
}

// crashManager uses no batching window and a tiny checkpoint interval: the
// sweep crosses several checkpoints, so cuts land inside checkpoint writes
// too.
func crashManager(t *testing.T, st *storage.Store) *Manager {
	t.Helper()
	m, err := NewManager(st, Options{GroupWindow: -1, CheckpointEvery: 3})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	return m
}

func runCrashMatrix(t *testing.T, in crashInput) {
	// Reference run without faults: the document after every prefix, and
	// the number of writes the sequence issues (the cut range). Tags are
	// interned in the same order as in the crashed runs, so the documents
	// compare equal tag for tag.
	st, dict, root := fixture(t, 512)
	dict.Intern("ins")
	m := crashManager(t, st)
	states := []*xmltree.Node{st.Export()}
	writes0 := st.Ledger().Snapshot().PageWrites
	for i := 0; i < in.commits; i++ {
		if err := in.step(m, dict, root, i); err != nil {
			t.Fatalf("reference commit %d: %v", i, err)
		}
		states = append(states, st.Export())
	}
	writes := int(st.Ledger().Snapshot().PageWrites - writes0)
	prefixOf := func(doc *xmltree.Node) int {
		for k, s := range states {
			if xmltree.Equal(s, doc) {
				return k
			}
		}
		return -1
	}

	for cut := 0; cut <= writes; cut++ {
		st, dict, root := fixture(t, 512)
		ins := dict.Intern("ins")
		m := crashManager(t, st)
		disk := st.Disk()
		base := disk.DroppedWrites()
		disk.SetWriteFault(cut)
		hard, done := 0, 0
		for i := 0; i < in.commits; i++ {
			err := in.step(m, dict, root, i)
			if err == nil {
				done = i + 1
			}
			if disk.DroppedWrites() > base {
				// The power went out during this commit: the process
				// is gone. (Running on would read pages whose backing
				// writes were dropped — bytes no live process can see.)
				break
			}
			if err != nil {
				t.Fatalf("cut=%d: commit %d failed before the crash: %v", cut, i, err)
			}
			hard = i + 1
		}
		disk.SetWriteFault(-1)

		k := -1
		var st2 *storage.Store
		for c := 0; ; c++ {
			dropped := disk.DroppedWrites()
			if in.crashRecovery {
				disk.SetWriteFault(c)
			}
			var err error
			st2, err = storage.Open(disk)
			disk.SetWriteFault(-1)
			if err != nil {
				t.Fatalf("cut=%d open=%d: recovery failed: %v", cut, c, err)
			}
			got := prefixOf(st2.Export())
			if got < 0 {
				t.Fatalf("cut=%d open=%d: recovered document is no prefix of commit order", cut, c)
			}
			if k >= 0 && got != k {
				t.Fatalf("cut=%d open=%d: recovered %d commits, but the crashed recovery before it had %d", cut, c, got, k)
			}
			k = got
			if disk.DroppedWrites() == dropped {
				break // this recovery completed
			}
		}
		if k < hard || k > done {
			t.Fatalf("cut=%d: recovered %d commits, want between %d (hard-acked) and %d (issued)", cut, k, hard, done)
		}

		// The recovered volume is writable: commit once more and verify.
		m2, err := NewManager(st2, Options{GroupWindow: -1})
		if err != nil {
			t.Fatalf("cut=%d: reopen manager: %v", cut, err)
		}
		if err := commitOne(m2, rootElem(t, st2), ins, 100); err != nil {
			t.Fatalf("cut=%d: post-recovery commit: %v", cut, err)
		}
		if n, want := countIns(m2, ins), states[k].CountTag(ins)+1; n != want {
			t.Fatalf("cut=%d: post-recovery count = %d, want %d", cut, n, want)
		}
	}
}

// insertStep commits <ins>v{i}</ins> under the root element.
func insertStep(m *Manager, dict *xmltree.Dictionary, root storage.NodeID, i int) error {
	return commitOne(m, root, dict.Intern("ins"), i)
}

// mixedStep commits, under the root element, a <big> fragment of 14
// children — more than a 512-byte page holds, so it spills to extension
// pages — together with four small leaves appended to <x> elements in
// turn, which fill the pages holding them until inserts must split them.
// Every third commit instead deletes the first <big> subtree.
func mixedStep(m *Manager, dict *xmltree.Dictionary, root storage.NodeID, i int) error {
	big := dict.Intern("big")
	if i%3 == 2 {
		victims, err := tagged(m, big)
		if err != nil || len(victims) == 0 {
			return fmt.Errorf("no <big> to delete (%v)", err)
		}
		return m.Update(func(tx *Tx) error { return tx.DeleteSubtree(victims[0]) })
	}
	frag := xmltree.NewElement(big)
	frag.SetAttr(dict.Intern("n"), fmt.Sprint(i))
	for j := 0; j < 14; j++ {
		y := xmltree.NewElement(dict.Intern("y"))
		y.AppendChild(xmltree.NewText(fmt.Sprintf("%d.%d-%s", i, j, strings.Repeat("p", 20))))
		frag.AppendChild(y)
	}
	xs, err := tagged(m, dict.Intern("x"))
	if err != nil {
		return err
	}
	small := dict.Intern("s")
	return m.Update(func(tx *Tx) error {
		if _, err := tx.InsertSubtree(root, storage.InvalidNodeID, frag); err != nil {
			return err
		}
		for j := 0; j < 4; j++ {
			leaf := xmltree.NewElement(small)
			leaf.AppendChild(xmltree.NewText(fmt.Sprintf("%d.%d-%s", i, j, strings.Repeat("q", 16))))
			if _, err := tx.InsertSubtree(xs[(4*i+j)%len(xs)], storage.InvalidNodeID, leaf); err != nil {
				return err
			}
		}
		return nil
	})
}

// tagged lists the elements tagged tag in the current version, following
// borders as they are met.
func tagged(m *Manager, tag xmltree.TagID) (ids []storage.NodeID, err error) {
	snap := m.Snapshot()
	defer snap.Release()
	v := snap.View(stats.NewLedger())
	defer func() {
		if r := recover(); r != nil {
			pe, ok := storage.AsPageFault(r)
			if !ok {
				panic(r)
			}
			err = pe
		}
	}()
	var walk func(c storage.Cursor)
	walk = func(c storage.Cursor) {
		it := v.Step(c, xpath.Descendant, xpath.NameTest(tag))
		for {
			r, ok := it.Next()
			if !ok {
				return
			}
			if r.IsBorder() {
				walk(v.Swizzle(r.Target()))
				continue
			}
			ids = append(ids, r.ID())
		}
	}
	walk(v.Swizzle(v.Root()))
	return ids, nil
}

// TestReclaimBoundsGrowth checks that superseded page versions are recycled:
// a long insert+delete churn must not grow the volume linearly.
func TestReclaimBoundsGrowth(t *testing.T) {
	st, dict, root := fixture(t, 512)
	m, err := NewManager(st, Options{GroupWindow: -1, CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	ins := dict.Intern("ins")
	disk := st.Disk()

	prev := storage.InvalidNodeID
	var warm int
	for i := 0; i < 60; i++ {
		i := i
		err := m.Update(func(tx *Tx) error {
			id, err := tx.InsertSubtree(root, storage.InvalidNodeID, insFrag(ins, i))
			if err != nil {
				return err
			}
			if prev != storage.InvalidNodeID {
				if err := tx.DeleteSubtree(prev); err != nil {
					return err
				}
			}
			prev = id
			return nil
		})
		if err != nil {
			t.Fatalf("churn %d: %v", i, err)
		}
		if i == 9 {
			warm = disk.NumPages()
		}
	}
	if got := countIns(m, ins); got != 1 {
		t.Fatalf("ins after churn = %d, want 1", got)
	}
	grow := disk.NumPages() - warm
	if grow > 50 {
		t.Fatalf("volume grew by %d pages over 50 steady-state commits; reclamation is not recycling", grow)
	}
}
