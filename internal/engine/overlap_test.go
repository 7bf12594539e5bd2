package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"pathdb/internal/core"
	"pathdb/internal/storage"
)

// residentStore returns the shared test volume with a pool that holds every
// page, warmed by one run of each path, and a func restoring the pool.
func residentStore(t *testing.T, srcs ...string) (*storage.Store, func()) {
	t.Helper()
	st, dict := testStore(t)
	st.SetBufferCapacity(1 << 14)
	for _, src := range srcs {
		core.BuildPlan(st, parsePath(t, dict, src), st.Roots(), core.StrategySimple, core.PlanOptions{}).Run()
	}
	if n, c := st.Disk().NumPages(), st.Buffer().Capacity(); n > c {
		t.Fatalf("volume has %d pages, pool %d: not resident", n, c)
	}
	return st, func() { st.SetBufferCapacity(smallWL.Config().BufferPages) }
}

// streamAll submits q as a stream, drains it and returns its summary. It
// reports failures as errors, so client goroutines can call it.
func streamAll(s *Session, q Query) (Result, error) {
	q.Stream = true
	p, err := s.Submit(context.Background(), q)
	if err != nil {
		return Result{}, fmt.Errorf("submit %s: %w", q.Label, err)
	}
	n := 0
	for range p.C() {
		n++
	}
	res, err := p.Wait(context.Background())
	if err != nil {
		return Result{}, fmt.Errorf("%s: %w", q.Label, err)
	}
	if n == 0 {
		return Result{}, fmt.Errorf("%s: streamed no results", q.Label)
	}
	return res, nil
}

// TestOverlapKeepsCosts: on a volume the pool holds, streams from many
// clients run in overlapping gangs, and each query's private virtual clock
// is bit-identical to a serial run of the same query.
func TestOverlapKeepsCosts(t *testing.T) {
	type spec struct {
		src    string
		strat  core.Strategy
		sorted bool
	}
	specs := []spec{
		{srcQ6, core.StrategySchedule, false},
		{srcQ6, core.StrategySimple, true},
		{srcQ7a, core.StrategyScan, false},
		{srcQ7b, core.StrategySimple, false},
		{srcQ7c, core.StrategySchedule, true},
		{srcQ15, core.StrategyScan, false},
	}
	st, restore := residentStore(t, srcQ6, srcQ7a, srcQ7b, srcQ7c, srcQ15)
	defer restore()
	_, dict := testStore(t)
	query := func(sp spec) Query {
		return Query{Label: sp.src, Path: parsePath(t, dict, sp.src), Strategy: sp.strat, Sorted: sp.sorted}
	}

	e := New(st, Config{MaxInFlight: 4, QueueDepth: 64, Parallel: 4})
	defer e.Close()
	s := e.NewSession()
	serial := make([]Result, len(specs))
	for i, sp := range specs {
		res, err := streamAll(s, query(sp))
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = res
	}

	const clients, rounds = 6, 3
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := range specs {
					i := (k + c + r) % len(specs)
					got, err := streamAll(s, query(specs[i]))
					if err != nil {
						t.Error(err)
						return
					}
					want := serial[i]
					if got.CostV != want.CostV || got.CPUV != want.CPUV || got.IOWaitV != want.IOWaitV {
						t.Errorf("client %d %s %v: CostV/CPUV/IOWaitV %v/%v/%v, serial %v/%v/%v", c,
							specs[i].src, specs[i].strat, got.CostV, got.CPUV, got.IOWaitV,
							want.CostV, want.CPUV, want.IOWaitV)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if m := e.Metrics(); m.Completed != int64(len(specs)*(1+clients*rounds)) {
		t.Fatalf("completed %d, want %d", m.Completed, len(specs)*(1+clients*rounds))
	}
}

// TestParkedStreamDoesNotBlock: a stream whose consumer stops reading
// parks its worker once the sink is full. On a resident volume the next
// query must still start on the other worker instead of queueing behind
// the parked gang.
func TestParkedStreamDoesNotBlock(t *testing.T) {
	st, restore := residentStore(t, srcQ6, srcQ7a)
	defer restore()
	_, dict := testStore(t)
	e := New(st, Config{Parallel: 2})
	defer e.Close()
	s := e.NewSession()

	a, err := s.Submit(context.Background(), Query{Label: srcQ7a, Path: parsePath(t, dict, srcQ7a), Strategy: core.StrategySimple, Stream: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := <-a.C(); !ok {
		t.Fatal("stream A delivered nothing")
	}
	b, err := s.Submit(context.Background(), Query{Label: srcQ6, Path: parsePath(t, dict, srcQ6), Strategy: core.StrategySimple, Stream: true})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case _, ok := <-b.C():
		if !ok {
			t.Fatal("stream B delivered nothing")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream B waited behind parked stream A")
	}
	if got := e.overlapped.Load(); got < 1 {
		t.Fatalf("overlapped gangs %d, want >= 1", got)
	}

	nA := 1
	for range a.C() {
		nA++
	}
	if nA <= streamDepth {
		t.Fatalf("stream A had %d results, want more than the sink depth %d", nA, streamDepth)
	}
	for range b.C() {
	}
	for _, p := range []*Pending{a, b} {
		if _, err := p.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestColdGangsStaySerial: on a volume larger than its pool, gangs share
// the one simulated device, so the dispatcher must never run two at once —
// not under concurrent clients, and not while a stream is parked.
func TestColdGangsStaySerial(t *testing.T) {
	st, dict := testStore(t)
	if n, c := st.Disk().NumPages(), st.Buffer().Capacity(); n <= c {
		t.Fatalf("volume has %d pages, pool %d: want a cold volume", n, c)
	}
	st.ResetForRun()
	e := New(st, Config{MaxInFlight: 2, QueueDepth: 64, Parallel: 4})
	defer e.Close()
	s := e.NewSession()

	srcs := []string{srcQ6, srcQ7a, srcQ7b, srcQ7c, srcQ15}
	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := range srcs {
				src := srcs[(k+c)%len(srcs)]
				q := Query{Label: src, Path: parsePath(t, dict, src), Strategy: core.StrategySchedule, Stream: c%2 == 0}
				var err error
				if q.Stream {
					_, err = streamAll(s, q)
				} else {
					_, err = s.Do(context.Background(), q)
				}
				if err != nil {
					t.Errorf("%s: %v", src, err)
				}
			}
		}(c)
	}
	wg.Wait()

	a, err := s.Submit(context.Background(), Query{Label: srcQ7a, Path: parsePath(t, dict, srcQ7a), Strategy: core.StrategySimple, Stream: true})
	if err != nil {
		t.Fatal(err)
	}
	<-a.C()
	b, err := s.Submit(context.Background(), Query{Label: srcQ15, Path: parsePath(t, dict, srcQ15), Strategy: core.StrategySimple})
	if err != nil {
		t.Fatal(err)
	}
	for range a.C() {
	}
	for _, p := range []*Pending{a, b} {
		if _, err := p.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.overlapped.Load(); got != 0 {
		t.Fatalf("%d gangs started beside another on a cold volume, want 0", got)
	}
}
