package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// loopResult is one closed-loop pass.
type loopResult struct {
	reads     []readSample
	commits   []time.Duration
	wall      time.Duration
	attempted int
	failed    int
	firstErr  error
}

// runLoop drives the workload's clients closed-loop over the schedule: each
// client sends its next request when the previous reply is complete. It
// stops issuing once dur has passed (dur > 0) or after maxReq requests
// (maxReq > 0), whichever comes first. A read whose count differs from
// expect fails.
func runLoop(ctx context.Context, t target, sch *schedule, dur time.Duration, maxReq int64, expect map[string]int, tr *tracer) loopResult {
	var (
		mu  sync.Mutex
		out loopResult
		wg  sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < sch.w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local loopResult
			for (dur <= 0 || time.Since(start) < dur) && ctx.Err() == nil {
				i, write, path := sch.next()
				if maxReq > 0 && i >= maxReq {
					break
				}
				local.attempted++
				var err error
				if write {
					var d time.Duration
					d, err = t.write(ctx, tr, i)
					if err == nil {
						local.commits = append(local.commits, d)
					}
				} else {
					var s readSample
					s, err = t.read(ctx, path, tr, i)
					if err == nil && s.count != expect[path] {
						err = fmt.Errorf("count(%s) = %d, oracle says %d", path, s.count, expect[path])
					}
					if err == nil {
						local.reads = append(local.reads, s)
					}
				}
				if err != nil {
					local.failed++
					if local.firstErr == nil {
						local.firstErr = fmt.Errorf("request %d: %w", i, err)
					}
				}
			}
			mu.Lock()
			out.reads = append(out.reads, local.reads...)
			out.commits = append(out.commits, local.commits...)
			out.attempted += local.attempted
			out.failed += local.failed
			if out.firstErr == nil {
				out.firstErr = local.firstErr
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	out.wall = time.Since(start)
	return out
}

// quantile returns the q-quantile of xs by the nearest-rank rule, with
// the number of samples strictly above it.
func quantile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := max(0, min(int(math.Ceil(q*float64(len(s))))-1, len(s)-1))
	return s[k], len(s) - 1 - k
}

func median(xs []float64) float64 {
	v, _ := quantile(xs, 0.5)
	return v
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
