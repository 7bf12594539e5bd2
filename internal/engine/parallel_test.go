package engine

import (
	"context"
	"testing"

	"pathdb/internal/bench"
	"pathdb/internal/core"
	"pathdb/internal/stats"
)

// TestParallelCostsMatchSequential asserts the determinism contract of the
// parallel engine: with a warm buffer, each query's private virtual clock
// (Result.CostV) is bit-identical whether the gang runs on one worker or
// eight, and equal to a solo baseline of the same query on a private view.
func TestParallelCostsMatchSequential(t *testing.T) {
	wl := bench.NewWorkload(bench.Config{EntityScale: 0.1, Seed: 7})
	st, dict := wl.Store(0.1)
	st.SetBufferCapacity(1 << 14) // hold the whole document
	defer st.SetBufferCapacity(wl.Config().BufferPages)

	type spec struct {
		src   string
		strat core.Strategy
	}
	// Exactly one Schedule member: a single batchable query is demoted to
	// solo, so every member runs on its own plan and the solo baseline is
	// the exact expected cost.
	specs := []spec{
		{srcQ6, core.StrategySchedule},
		{srcQ6, core.StrategySimple},
		{srcQ7a, core.StrategyScan},
		{srcQ7b, core.StrategySimple},
		{srcQ7c, core.StrategyScan},
		{srcQ15, core.StrategySimple},
		{srcQ15, core.StrategyScan},
		{srcQ7a, core.StrategySimple},
	}

	// Warm every working set on the base store.
	for _, sp := range specs {
		core.BuildPlan(st, parsePath(t, dict, sp.src), st.Roots(), sp.strat, core.PlanOptions{}).Run()
	}

	// Solo baseline: each query on a private view with a fresh ledger.
	base := make([]stats.Ticks, len(specs))
	for i, sp := range specs {
		view := st.Reader(stats.NewLedger())
		core.BuildPlan(view, parsePath(t, dict, sp.src), st.Roots(), sp.strat, core.PlanOptions{}).Run()
		base[i] = view.Ledger().Total()
		if base[i] == 0 {
			t.Fatalf("spec %d (%s %v): zero baseline cost", i, sp.src, sp.strat)
		}
	}

	runGang := func(parallel int) []Result {
		t.Helper()
		e := newStoppedEngine(st, Config{MaxInFlight: len(specs), QueueDepth: len(specs), Parallel: parallel})
		s := e.NewSession()
		pendings := make([]*Pending, len(specs))
		for i, sp := range specs {
			p, err := s.TrySubmit(context.Background(), Query{
				Label:    sp.src,
				Path:     parsePath(t, dict, sp.src),
				Strategy: sp.strat,
			})
			if err != nil {
				t.Fatalf("parallel=%d submit %d: %v", parallel, i, err)
			}
			pendings[i] = p
		}
		e.execute(e.gather(<-e.queue), false)
		out := make([]Result, len(specs))
		for i, p := range pendings {
			res, err := p.Wait(context.Background())
			if err != nil {
				t.Fatalf("parallel=%d query %d: %v", parallel, i, err)
			}
			out[i] = res
		}
		return out
	}

	serial := runGang(1)
	wide := runGang(8)
	for i, sp := range specs {
		for _, r := range []struct {
			name string
			res  Result
		}{{"parallel=1", serial[i]}, {"parallel=8", wide[i]}} {
			if r.res.IOWaitV != 0 {
				t.Errorf("%s %s %v: IOWaitV %v on a warm buffer, want 0",
					r.name, sp.src, sp.strat, r.res.IOWaitV)
			}
			if r.res.CostV != base[i] {
				t.Errorf("%s %s %v: CostV %v, want solo baseline %v",
					r.name, sp.src, sp.strat, r.res.CostV, base[i])
			}
			if r.res.CostV != r.res.CPUV+r.res.IOWaitV {
				t.Errorf("%s %s %v: CostV %v != CPUV %v + IOWaitV %v",
					r.name, sp.src, sp.strat, r.res.CostV, r.res.CPUV, r.res.IOWaitV)
			}
		}
	}

	// Shared groups: an all-batchable gang splits into different group
	// shapes at different Parallel settings (one group of 6 vs groups of
	// 2—3), but each member's private clock only ever pays for its own
	// work, so per-member costs must not depend on the grouping either.
	sharedSpecs := []string{srcQ6, srcQ7a, srcQ7b, srcQ6, srcQ7a, srcQ7b}
	runSharedGang := func(parallel int) []Result {
		t.Helper()
		e := newStoppedEngine(st, Config{MaxInFlight: len(sharedSpecs), QueueDepth: len(sharedSpecs), Parallel: parallel})
		s := e.NewSession()
		pendings := make([]*Pending, len(sharedSpecs))
		for i, src := range sharedSpecs {
			p, err := s.TrySubmit(context.Background(), Query{
				Label:    src,
				Path:     parsePath(t, dict, src),
				Strategy: core.StrategySchedule,
			})
			if err != nil {
				t.Fatalf("parallel=%d submit %d: %v", parallel, i, err)
			}
			pendings[i] = p
		}
		e.execute(e.gather(<-e.queue), false)
		out := make([]Result, len(sharedSpecs))
		for i, p := range pendings {
			res, err := p.Wait(context.Background())
			if err != nil {
				t.Fatalf("parallel=%d shared query %d: %v", parallel, i, err)
			}
			if !res.Shared {
				t.Fatalf("parallel=%d shared query %d did not batch", parallel, i)
			}
			out[i] = res
		}
		return out
	}
	sharedSerial := runSharedGang(1)
	sharedWide := runSharedGang(8)
	for i, src := range sharedSpecs {
		if a, b := sharedSerial[i].CostV, sharedWide[i].CostV; a != b {
			t.Errorf("shared member %d (%s): CostV %v at parallel=1, %v at parallel=8", i, src, a, b)
		}
		if w := sharedSerial[i].IOWaitV; w != 0 {
			t.Errorf("shared member %d (%s): IOWaitV %v on a warm buffer, want 0", i, src, w)
		}
	}
}
