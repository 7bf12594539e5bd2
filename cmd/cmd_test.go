// Package cmd_test runs the command-line tools end to end through `go
// run`, checking that every binary builds and produces sane output on a
// real document. These are integration tests; skip with -short.
package cmd_test

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// run executes a tool via `go run` from the repository root.
func run(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	cmd.Dir = ".." // repo root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run %v: %v\n%s", args, err, out)
	}
	return string(out)
}

func TestCommandLineTools(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	dir := t.TempDir()
	docPath := filepath.Join(dir, "doc.xml")

	// xmarkgen writes a document.
	out := run(t, "./cmd/xmarkgen", "-sf", "0.2", "-scale", "0.01", "-seed", "5", "-o", docPath)
	if out != "" {
		t.Fatalf("xmarkgen output: %q", out)
	}
	data, err := os.ReadFile(docPath)
	if err != nil || !strings.Contains(string(data), "<site>") {
		t.Fatalf("generated doc bad: %v", err)
	}

	// xpathq evaluates a query against it, for each strategy plus auto.
	var counts []string
	for _, strat := range []string{"simple", "xschedule", "xscan", "auto"} {
		out = run(t, "./cmd/xpathq", "-xml", docPath, "-q", "/site/regions//item",
			"-strategy", strat, "-explain", "-plan")
		line := ""
		for _, l := range strings.Split(out, "\n") {
			if strings.HasPrefix(l, "count(") {
				line = l
			}
		}
		if line == "" {
			t.Fatalf("xpathq (%s) printed no count:\n%s", strat, out)
		}
		counts = append(counts, strings.Fields(line)[2])
		if !strings.Contains(out, "cost:") {
			t.Fatalf("xpathq (%s) printed no cost report", strat)
		}
	}
	for _, c := range counts[1:] {
		if c != counts[0] {
			t.Fatalf("strategies disagree across CLI runs: %v", counts)
		}
	}

	// xpathq -print serializes results.
	out = run(t, "./cmd/xpathq", "-xml", docPath, "-q", "/site/regions/africa/item", "-print")
	if !strings.Contains(out, "<item") {
		t.Fatalf("xpathq -print produced no items:\n%.300s", out)
	}

	// xvolume inspects the volume.
	out = run(t, "./cmd/xvolume", "-xml", docPath, "-tags")
	for _, want := range []string{"volume:", "records:", "dictionary:", "item"} {
		if !strings.Contains(out, want) {
			t.Fatalf("xvolume missing %q:\n%s", want, out)
		}
	}

	// xbench runs a tiny figure and emits machine-readable JSON.
	jsonDir := filepath.Join(dir, "bench")
	out = run(t, "./cmd/xbench", "-scale", "0.01", "-quick", "-fig", "11", "-json", jsonDir)
	if !strings.Contains(out, "xschedule") || !strings.Contains(out, "0.25") {
		t.Fatalf("xbench figure output:\n%s", out)
	}
	data, err = os.ReadFile(filepath.Join(jsonDir, "BENCH_fig11.json"))
	if err != nil {
		t.Fatalf("xbench -json wrote no file: %v", err)
	}
	var benchFile struct {
		Name         string `json:"name"`
		Measurements []struct {
			Query    string  `json:"query"`
			Strategy string  `json:"strategy"`
			SF       float64 `json:"sf"`
			TotalSec float64 `json:"total_s"`
		} `json:"measurements"`
	}
	if err := json.Unmarshal(data, &benchFile); err != nil {
		t.Fatalf("BENCH_fig11.json invalid: %v\n%s", err, data)
	}
	if benchFile.Name != "fig11" || len(benchFile.Measurements) != 9 {
		t.Fatalf("BENCH_fig11.json content: name %q, %d measurements",
			benchFile.Name, len(benchFile.Measurements))
	}

	// xbench -strategy restricts the sweep through ParseStrategy.
	out = run(t, "./cmd/xbench", "-scale", "0.01", "-quick", "-fig", "11", "-strategy", "xscan")
	if !strings.Contains(out, "xscan") {
		t.Fatalf("xbench -strategy output:\n%s", out)
	}
}

// TestLoadGenerator runs the closed-loop load generator and checks the
// acceptance property of the concurrent engine: per-query result counts
// are identical for 1 and 8 clients on the same volume.
func TestLoadGenerator(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	countLines := func(out string) []string {
		var counts []string
		for _, l := range strings.Split(out, "\n") {
			if strings.HasPrefix(l, "count(") {
				counts = append(counts, l)
			}
		}
		return counts
	}
	base := []string{"./cmd/xload", "-xmark", "0.25", "-scale", "0.05", "-requests", "12", "-mix", "all"}
	seq := run(t, append(base, "-clients", "1")...)
	conc := run(t, append(base, "-clients", "8")...)

	seqCounts, concCounts := countLines(seq), countLines(conc)
	// q6 (1) + q7 (3) + q15 (1) + branch (3) paths in the "all" mix.
	if len(seqCounts) != 8 {
		t.Fatalf("xload -clients 1 reported %d paths, want 8:\n%s", len(seqCounts), seq)
	}
	if strings.Join(seqCounts, "\n") != strings.Join(concCounts, "\n") {
		t.Fatalf("per-query results differ between 1 and 8 clients:\n%v\nvs\n%v", seqCounts, concCounts)
	}
	for _, out := range []string{seq, conc} {
		for _, want := range []string{"throughput:", "latency virtual", "latency wall", "engine: gangs="} {
			if !strings.Contains(out, want) {
				t.Fatalf("xload output missing %q:\n%s", want, out)
			}
		}
	}
}

// TestQueryServer drives xserved over real sockets: xload -url as a
// client, then the protocol-level contracts one by one — an expired
// timeout_ms answers 504 and withdraws the query's prefetches, a full
// admission queue answers 503 with Retry-After, /metrics stays a valid
// Prometheus text exposition throughout, and SIGTERM drains cleanly.
func TestQueryServer(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	bin := filepath.Join(t.TempDir(), "xserved")
	build := exec.Command("go", "build", "-o", bin, "./cmd/xserved")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build xserved: %v\n%s", err, out)
	}

	// Small buffer so heavy queries always reach the simulated device
	// (prefetches in flight to withdraw), tight engine limits so a burst
	// overflows admission.
	srv := exec.Command(bin, "-xmark", "0.5", "-buffer", "64",
		"-inflight", "2", "-queue", "2", "-addr", "127.0.0.1:0")
	stdout, err := srv.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	srv.Stderr = srv.Stdout
	if err := srv.Start(); err != nil {
		t.Fatalf("start xserved: %v", err)
	}
	defer srv.Process.Kill()

	sc := bufio.NewScanner(stdout)
	base := ""
	for sc.Scan() {
		if addr, ok := strings.CutPrefix(sc.Text(), "listening on "); ok {
			base = "http://" + addr
			break
		}
	}
	if base == "" {
		t.Fatalf("xserved never reported its address: %v", sc.Err())
	}
	var rest strings.Builder
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for sc.Scan() {
			rest.WriteString(sc.Text() + "\n")
		}
	}()

	post := func(body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(base+"/v1/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST /query: %v", err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, data
	}
	metrics := func() map[string]float64 {
		t.Helper()
		resp, err := http.Get(base + "/v1/metrics")
		if err != nil {
			t.Fatalf("GET /metrics: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/metrics status %d", resp.StatusCode)
		}
		vals := make(map[string]float64)
		seenType := make(map[string]bool)
		ms := bufio.NewScanner(resp.Body)
		for ms.Scan() {
			line := ms.Text()
			if line == "" {
				continue
			}
			if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
				seenType[strings.Fields(rest)[0]] = true
				continue
			}
			if strings.HasPrefix(line, "#") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) != 2 {
				t.Fatalf("/metrics sample not `name value`: %q", line)
			}
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				t.Fatalf("/metrics value of %s: %v", fields[0], err)
			}
			if !seenType[fields[0]] {
				t.Fatalf("/metrics sample %s has no preceding # TYPE", fields[0])
			}
			if _, dup := vals[fields[0]]; dup {
				t.Fatalf("/metrics duplicate series %s", fields[0])
			}
			vals[fields[0]] = v
		}
		return vals
	}

	// xload -url drives the server end to end — reads through POST /query,
	// write transactions through POST /update — and records engine counters.
	// The pads written under /site are invisible to the query mixes, so the
	// read counts stay stable.
	jsonDir := t.TempDir()
	out := run(t, "./cmd/xload", "-url", base, "-clients", "4", "-requests", "16",
		"-write-frac", "0.25", "-json", jsonDir)
	for _, want := range []string{"mode=url", "count(/site/regions//item) =", "engine: gangs=", "txn: commits="} {
		if !strings.Contains(out, want) {
			t.Fatalf("xload -url output missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(filepath.Join(jsonDir, "BENCH_xload.json"))
	if err != nil {
		t.Fatalf("xload -url -json wrote no file: %v", err)
	}
	var load struct {
		Mode      string `json:"mode"`
		Submitted int64  `json:"engine_submitted"`
		Writes    int64  `json:"writes"`
		Commits   uint64 `json:"txn_commits"`
	}
	if err := json.Unmarshal(data, &load); err != nil {
		t.Fatalf("BENCH_xload.json invalid: %v\n%s", err, data)
	}
	if load.Mode != "url" || load.Submitted < 8 {
		t.Fatalf("BENCH_xload.json: mode %q, submitted %d", load.Mode, load.Submitted)
	}
	if load.Writes < 1 || load.Commits < uint64(load.Writes) {
		t.Fatalf("BENCH_xload.json: writes %d, txn_commits %d", load.Writes, load.Commits)
	}

	// An expired timeout_ms is a 504 and the cancelled query's prefetches
	// are withdrawn from the device queue — both visible in /metrics.
	timedOut := false
	for i := 0; i < 10 && !timedOut; i++ {
		resp, data := post(`{"path": "/site//description", "timeout_ms": 1, "strategy": "xschedule"}`)
		switch resp.StatusCode {
		case http.StatusGatewayTimeout:
			timedOut = true
		case http.StatusOK, http.StatusServiceUnavailable:
		default:
			t.Fatalf("timeout probe: status %d: %s", resp.StatusCode, data)
		}
	}
	if !timedOut {
		t.Fatal("no 504 despite a 1ms budget on a heavy query")
	}
	// The 504 is written when the client's deadline fires; the engine
	// registers the cancellation at the query's next operator poll point,
	// which can land just after the response. Poll briefly.
	m := metrics()
	for i := 0; i < 50 && m["pathdb_engine_cancelled_total"] == 0; i++ {
		time.Sleep(20 * time.Millisecond)
		m = metrics()
	}
	if m["pathdb_engine_cancelled_total"] == 0 {
		t.Fatal("504 served but engine cancelled_total is 0")
	}
	if m["pathdb_ledger_async_withdrawn_total"] == 0 {
		t.Fatal("cancelled query's prefetches were not withdrawn")
	}
	if m["pathdb_server_timeouts_total"] == 0 {
		t.Fatal("server timeouts_total is 0 after a 504")
	}

	// A burst past MaxInFlight+QueueDepth sheds with 503 + Retry-After.
	var mu sync.Mutex
	codes := make(map[int]int)
	retryAfter := ""
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(base+"/v1/query", "application/json",
				strings.NewReader(`{"path": "/site//description"}`))
			if err != nil {
				t.Errorf("burst POST: %v", err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			mu.Lock()
			codes[resp.StatusCode]++
			if resp.StatusCode == http.StatusServiceUnavailable {
				retryAfter = resp.Header.Get("Retry-After")
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if codes[http.StatusOK] == 0 || codes[http.StatusServiceUnavailable] == 0 {
		t.Fatalf("burst of 16 on a depth-4 engine: status codes %v", codes)
	}
	if _, err := strconv.Atoi(retryAfter); err != nil {
		t.Fatalf("503 Retry-After %q is not an integer", retryAfter)
	}
	m = metrics()
	if m["pathdb_engine_rejected_total"] == 0 {
		t.Fatal("503s served but engine rejected_total is 0")
	}
	if m["pathdb_server_shed_total"] == 0 {
		t.Fatal("503s served but server shed_total is 0")
	}

	// SIGTERM drains: the process exits 0 and reports completion.
	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-drained:
	case <-time.After(30 * time.Second):
		t.Fatal("xserved did not exit within 30s of SIGTERM")
	}
	if err := srv.Wait(); err != nil {
		t.Fatalf("xserved exit: %v\n%s", err, rest.String())
	}
	if !strings.Contains(rest.String(), "drained") {
		t.Fatalf("xserved shutdown output:\n%s", rest.String())
	}
}

func TestShellSession(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cmd := exec.Command("go", "run", "./cmd/xshell", "-xmark", "0.2", "-scale", "0.01")
	cmd.Dir = ".."
	cmd.Stdin = strings.NewReader(
		"/site/regions//item\n" +
			"\\strategy xscan\n" +
			"\\plan /site\n" +
			"\\insert /site <extra/>\n" +
			"/site/extra\n" +
			"\\quit\n")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("xshell: %v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{"pathdb shell", "count = ", "XScan(", "inserted", "count = 1"} {
		if !strings.Contains(s, want) {
			t.Fatalf("shell output missing %q:\n%s", want, s)
		}
	}
}
