package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"testing"

	"pathdb"
)

// tiny returns the smoke-test settings for w: a small document, one
// set-up, a short replay and probe, so every workload finishes in well
// under a second of measurement.
func tiny(t *testing.T, w workload, trace bool) config {
	w.layerRequests = 24
	return config{
		workload: w, seed: 7, seconds: 0.3, trace: trace, traceDir: t.TempDir(),
		sf: 0.1, entityScale: 0.05, setups: 1, probeCommits: 16,
	}
}

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, have)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

// TestSmoke runs every workload untraced and traced at tiny scale: the
// printed metric names must be exactly the declared ones and every read
// must match the oracle.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				var out strings.Builder
				rep, err := runWorkload(tiny(t, w, trace), &out)
				if err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				if !rep.Correct || rep.Failed != 0 {
					t.Fatalf("oracle check failed: %d of %d requests\n%s", rep.Failed, rep.Attempted, out.String())
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if got := sortedNames(rep.Metrics); strings.Join(got, ",") != strings.Join(want, ",") {
					t.Fatalf("metrics printed:\n%v\ndeclared:\n%v", got, want)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var last report
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line is not the JSON result: %v", err)
				}
			})
		}
	}
}

// TestLayerReplayRepeats checks that the single-client layer replay's
// ledger counts and plan.regret inputs repeat exactly across two runs on
// fresh stores of the same document.
func TestLayerReplayRepeats(t *testing.T) {
	x := pathdb.XMarkConfig{ScaleFactor: 0.1, Seed: 7, EntityScale: 0.05}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			expect, err := oracle(x, w.paths())
			if err != nil {
				t.Fatal(err)
			}
			var runs [2]*layerStats
			for r := range runs {
				ls, err := newLayerStore(x, w.frames)
				if err != nil {
					t.Fatal(err)
				}
				runs[r], err = runLayers(newSchedule(w, x.Seed), ls, 24, expect, nil)
				ls.close()
				if err != nil {
					t.Fatal(err)
				}
				if runs[r].mismatches != 0 {
					t.Fatalf("run %d: %d oracle mismatches", r, runs[r].mismatches)
				}
			}
			a, b := runs[0], runs[1]
			for _, c := range []struct {
				name string
				a, b int64
			}{
				{"page reads", a.q.PageReads, b.q.PageReads},
				{"nodes visited", a.q.NodesVisited, b.q.NodesVisited},
				{"virtual CPU", int64(a.q.CPU), int64(b.q.CPU)},
				{"swizzles", a.q.Swizzles, b.q.Swizzles},
				{"regret chosen cost", int64(a.regretChosen), int64(b.regretChosen)},
				{"regret best cost", int64(a.regretBest), int64(b.regretBest)},
			} {
				if c.a != c.b {
					t.Errorf("%s: %d then %d", c.name, c.a, c.b)
				}
			}
			if a.q.NodesVisited == 0 {
				t.Error("the replay visited no nodes")
			}
		})
	}
}

// TestScheduleBlocksKeepShares checks that every block of reads is a
// permutation of the pattern, so each block has the mix's exact shares.
func TestScheduleBlocksKeepShares(t *testing.T) {
	for _, w := range workloads {
		sch := newSchedule(w, 7)
		n := len(sch.pattern)
		want := map[string]int{}
		for _, p := range sch.pattern {
			want[p]++
		}
		for block := 0; block < 8; block++ {
			got := map[string]int{}
			for k := 0; k < n; {
				if _, write, path := sch.next(); !write {
					got[path]++
					k++
				}
			}
			for p, c := range want {
				if got[p] != c {
					t.Fatalf("%s block %d: %s read %d times, want %d", w.name, block, p, got[p], c)
				}
			}
		}
	}
}

// TestFlagsKeepScale checks that the command line sets only the workload,
// seed, duration and tracing, and every run gets the benchmark's scale.
func TestFlagsKeepScale(t *testing.T) {
	cfg, ws, err := parseFlags([]string{"--workload", "all", "--seed", "3", "--seconds", "2", "--trace", "1"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != len(workloads) || cfg.seed != 3 || cfg.seconds != 2 || !cfg.trace {
		t.Fatalf("parsed %+v, %d workloads", cfg, len(ws))
	}
	if cfg.sf != scaleFactor || cfg.entityScale != entityScale || cfg.setups != setups || cfg.probeCommits != probeCommits {
		t.Fatalf("scale %+v, want the benchmark's constants", cfg)
	}
	if _, _, err := parseFlags([]string{"--workload", "rw-warm", "--sf", "0.1"}, io.Discard); err == nil {
		t.Fatal("--sf accepted")
	}
}
