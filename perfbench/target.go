package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"pathdb"
	"pathdb/internal/server"
	"pathdb/internal/shard"
	"pathdb/internal/storage"
)

// readSample is the outcome of one read, timed from submission.
type readSample struct {
	count int
	wall  time.Duration // submit to last node
	ttfr  time.Duration // submit to first node
	costV time.Duration // virtual cost of the read (the paper's cost model)

	// In-process engine detail from the cursor summary.
	queue, exec time.Duration
	gang        int
	sharedV     time.Duration
}

// target is the system under test as its users reach it.
type target interface {
	// read streams one path to its last node.
	read(ctx context.Context, path string, tr *tracer, req int64) (readSample, error)
	// write commits one <xloadpad/> insert under /site and returns the
	// transaction's latency.
	write(ctx context.Context, tr *tracer, req int64) (time.Duration, error)
	counters() counterSnap
	// describe names the volume layout: pages and pool frames.
	describe() string
	close()
}

// counterSnap is the set of program counters a run reports as deltas.
type counterSnap struct {
	eng        pathdb.EngineMetrics
	txn        pathdb.TxnMetrics
	volumeCPU  time.Duration // the volume ledger's virtual CPU
	partials   int64
	routerShed int64
}

// engineTarget is one volume behind an in-process pathdb.Engine, read
// through cursors.
type engineTarget struct {
	db     *pathdb.DB
	eng    *pathdb.Engine
	ses    *pathdb.Session
	site   pathdb.Node
	frames int
}

func newEngineTarget(x pathdb.XMarkConfig, frames int) (*engineTarget, error) {
	db, err := pathdb.GenerateXMark(x, pathdb.Options{BufferPages: frames})
	if err != nil {
		return nil, err
	}
	q, err := db.Query("/site")
	if err != nil {
		return nil, err
	}
	site := q.Nodes()
	if len(site) != 1 {
		return nil, fmt.Errorf("/site matched %d nodes", len(site))
	}
	eng := db.NewEngine(pathdb.EngineConfig{})
	db.ResetStats()
	if frames == 0 {
		frames = storage.DefaultBufferPages
	}
	return &engineTarget{db: db, eng: eng, ses: eng.NewSession(), site: site[0], frames: frames}, nil
}

func (t *engineTarget) read(ctx context.Context, path string, tr *tracer, req int64) (readSample, error) {
	root := tr.begin("request", req, 0)
	defer tr.end(root)
	t0 := time.Now()
	sp := tr.begin("pathdb.stream", req, root.ID)
	cur, err := t.ses.Stream(ctx, path, pathdb.QueryOptions{})
	tr.end(sp)
	if err != nil {
		return readSample{}, err
	}
	defer cur.Close()
	var s readSample
	sp = tr.begin("pathdb.next", req, root.ID)
	more := cur.Next()
	s.ttfr = time.Since(t0)
	tr.end(sp)
	if more {
		sp = tr.begin("pathdb.drain", req, root.ID)
		for cur.Next() {
		}
		tr.end(sp)
	}
	s.wall = time.Since(t0)
	if err := cur.Err(); err != nil {
		return readSample{}, err
	}
	s.count = cur.Count()
	res, ok := cur.Summary()
	if !ok {
		return readSample{}, errors.New("cursor ended without a summary")
	}
	s.costV = time.Duration(res.CostV)
	s.queue, s.exec = res.WallQueue, res.WallExec
	s.gang = res.Gang
	s.sharedV = time.Duration(res.SharedV)
	return s, nil
}

func (t *engineTarget) write(_ context.Context, tr *tracer, req int64) (time.Duration, error) {
	root := tr.begin("request", req, 0)
	defer tr.end(root)
	sp := tr.begin("pathdb.update", req, root.ID)
	t0 := time.Now()
	err := t.eng.Update(func(tx *pathdb.Tx) error {
		_, err := tx.InsertXML(t.site, fragment)
		return err
	})
	d := time.Since(t0)
	tr.end(sp)
	return d, err
}

func (t *engineTarget) counters() counterSnap {
	cr := t.db.CostReport()
	return counterSnap{
		eng:       t.eng.Metrics(),
		txn:       t.db.TxnMetrics(),
		volumeCPU: time.Duration(cr.CPU),
	}
}

func (t *engineTarget) describe() string {
	return fmt.Sprintf("document: %d pages, pool %d frames, one volume", t.db.Pages(), t.frames)
}

func (t *engineTarget) close() { t.eng.Close() }

// httpTarget is a sharded cluster behind server.Router, served on a
// loopback listener and reached over keep-alive HTTP connections, one per
// client, with NDJSON query streams.
type httpTarget struct {
	cl     *shard.Cluster
	rt     *server.Router
	srv    *http.Server
	served chan error
	base   string
	client *http.Client

	// Set by the traced run: handler spans and response bytes.
	tr       atomic.Pointer[tracer]
	bytesOut atomic.Int64
	shed     atomic.Int64 // 503/429 answers seen by the clients
}

func newHTTPTarget(x pathdb.XMarkConfig, shards, conns int) (*httpTarget, error) {
	cl, err := shard.NewXMark(x, pathdb.Options{}, shard.Config{Shards: shards})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cl.Close()
		return nil, err
	}
	t := &httpTarget{
		cl:     cl,
		rt:     server.NewRouter(cl, server.Options{}, shard.QuotaConfig{}),
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		}},
	}
	t.srv = &http.Server{Handler: http.HandlerFunc(t.serve)}
	go func() { t.served <- t.srv.Serve(ln) }()
	return t, nil
}

// serve is the benchmark-owned handler around Router.ServeHTTP. Traced
// runs record a handler span under the client's request ID and count the
// response bytes.
func (t *httpTarget) serve(w http.ResponseWriter, r *http.Request) {
	tr := t.tr.Load()
	if tr == nil {
		t.rt.ServeHTTP(w, r)
		return
	}
	req, _ := strconv.ParseInt(r.Header.Get("X-Bench-Req"), 10, 64)
	parent, _ := strconv.ParseInt(r.Header.Get("X-Bench-Span"), 10, 64)
	sp := tr.begin("server.handler", req, parent)
	cw := &countingWriter{ResponseWriter: w}
	t.rt.ServeHTTP(cw, r)
	tr.end(sp)
	t.bytesOut.Add(cw.n)
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// post sends one JSON request; the caller drains and closes the body.
func (t *httpTarget) post(ctx context.Context, path string, body any, ndjson bool, req, parent int64) (*http.Response, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, t.base+path, bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	if ndjson {
		hr.Header.Set("Accept", "application/x-ndjson")
	}
	hr.Header.Set("X-Bench-Req", strconv.FormatInt(req, 10))
	hr.Header.Set("X-Bench-Span", strconv.FormatInt(parent, 10))
	resp, err := t.client.Do(hr)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable || resp.StatusCode == http.StatusTooManyRequests {
			t.shed.Add(1)
		}
		return nil, fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return resp, nil
}

// streamLine holds the fields of the NDJSON summary line that the
// benchmark checks.
type streamLine struct {
	Summary bool   `json:"summary"`
	Count   int    `json:"count"`
	CostVNs int64  `json:"cost_v_ns"`
	Partial bool   `json:"partial"`
	Error   string `json:"error"`
}

func (t *httpTarget) read(ctx context.Context, path string, tr *tracer, req int64) (readSample, error) {
	root := tr.begin("http.request", req, 0)
	defer tr.end(root)
	t0 := time.Now()
	resp, err := t.post(ctx, "/v1/query", server.QueryRequest{Path: path}, true, req, root.ID)
	if err != nil {
		return readSample{}, err
	}
	defer resp.Body.Close()
	var s readSample
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	nodes := 0
	var sum *streamLine
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.Contains(line, []byte(`"summary":true`)) {
			sum = new(streamLine)
			if err := json.Unmarshal(line, sum); err != nil {
				return readSample{}, fmt.Errorf("summary line: %w", err)
			}
			continue
		}
		if nodes == 0 {
			s.ttfr = time.Since(t0)
		}
		nodes++
	}
	s.wall = time.Since(t0)
	if err := sc.Err(); err != nil {
		return readSample{}, err
	}
	switch {
	case sum == nil:
		return readSample{}, errors.New("stream ended without a summary line")
	case sum.Error != "":
		return readSample{}, errors.New(sum.Error)
	case sum.Partial:
		return readSample{}, errors.New("partial result")
	case sum.Count != nodes:
		return readSample{}, fmt.Errorf("summary count %d, %d node lines", sum.Count, nodes)
	}
	if nodes == 0 {
		s.ttfr = s.wall
	}
	s.count = nodes
	s.costV = time.Duration(sum.CostVNs)
	return s, nil
}

func (t *httpTarget) write(ctx context.Context, tr *tracer, req int64) (time.Duration, error) {
	root := tr.begin("http.request", req, 0)
	defer tr.end(root)
	t0 := time.Now()
	resp, err := t.post(ctx, "/v1/update", server.UpdateRequest{Op: "insert", Parent: "/site", XML: fragment}, false, req, root.ID)
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return time.Since(t0), err
}

func (t *httpTarget) counters() counterSnap {
	var c counterSnap
	for _, m := range t.cl.Metrics() {
		c.eng.Rejected += m.Engine.Rejected
		c.eng.Completed += m.Engine.Completed
		c.eng.Gangs += m.Engine.Gangs
		c.eng.Batched += m.Engine.Batched
		c.eng.Faulted += m.Engine.Faulted
		c.eng.OverheadV += m.Engine.OverheadV
		c.txn.Commits += m.Txn.Commits
		c.txn.Aborts += m.Txn.Aborts
		c.txn.Groups += m.Txn.Groups
		c.txn.Flushes += m.Txn.Flushes
		c.txn.Pinned += m.Txn.Pinned
		c.txn.FreePage += m.Txn.FreePage
		c.volumeCPU += time.Duration(m.Ledger.CPU)
	}
	if sp := t.cl.Set().Spine; sp != nil {
		c.volumeCPU += time.Duration(sp.CostReport().CPU)
	}
	c.partials = t.cl.Partials()
	c.routerShed = t.shed.Load()
	return c
}

func (t *httpTarget) describe() string {
	var pages []string
	for _, m := range t.cl.Metrics() {
		pages = append(pages, strconv.Itoa(m.Pages))
	}
	return fmt.Sprintf("document: %s pages on %d shards, pool %d frames each, served at %s",
		strings.Join(pages, "/"), t.cl.Shards(), storage.DefaultBufferPages, t.base)
}

func (t *httpTarget) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = t.srv.Shutdown(ctx) // a failed drain still closes the listener
	<-t.served
	t.client.CloseIdleConnections()
	t.cl.Close()
}
