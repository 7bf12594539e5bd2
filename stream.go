package pathdb

import (
	"context"
	"sort"

	"pathdb/internal/core"
	"pathdb/internal/engine"
	"pathdb/internal/ordpath"
	"pathdb/internal/storage"
)

// Cursor is a pull-based result stream: the one evaluation surface every
// query call is built on. The buffered calls (Session.Do, DB.QueryCtx,
// Query.Count/Nodes) drain a cursor in buffered mode; the streaming ones
// (Session.Stream, DB.QueryStream, Query.Each) hand out a live one.
//
//	c, err := sess.Stream(ctx, "//item", pathdb.QueryOptions{})
//	if err != nil { ... }
//	defer c.Close()
//	for c.Next() {
//	    use(c.Node())
//	}
//	if err := c.Err(); err != nil { ... }
//
// Close is mandatory (like sql.Rows): an abandoned cursor would otherwise
// hold its producer blocked on back-pressure. Close is idempotent, safe
// mid-stream — it cancels the query, which withdraws its in-flight cluster
// prefetches and returns pooled arenas/iterators at the next poll point —
// and after it Next reports false. Once the stream has ended (Next
// reported false, or Close returned), nothing the query started is left
// running.
//
// A cursor has two delivery modes. A live cursor reads each union
// branch's engine sink in submission order: unsorted matches are handed
// over as the operator tree produces them, with the producer at most a
// bounded channel ahead (back-pressure), and a sorted single path starts
// only when evaluation finishes (order enforcement buffers at the
// producer, charged to the query like any other work). A buffered cursor
// waits for every branch, merges them — union dedup, the document-order
// sort of a sorted union, the Limit cut — and yields the merged nodes.
//
// A Cursor is not safe for concurrent use by multiple goroutines.
type Cursor struct {
	db   *DB
	path string
	opts QueryOptions

	ctx    context.Context
	cancel context.CancelFunc

	// One Pending per union branch, drained in submission order. Live
	// cursors read the sinks; buffered cursors wait the summaries and
	// iterate the merged node list.
	pend []*engine.Pending
	live bool
	cur  int             // branch currently being drained (live)
	bres []engine.Result // clean branch summaries harvested so far
	// exited closes when the goroutine executing a DB-level query has
	// exited; nil for session queries, which run on the engine's workers.
	exited <-chan struct{}

	// Buffered iteration state: the merged result, yielded one node at a
	// time.
	merged bool
	sum    ExecResult
	sumOK  bool
	idx    int

	seen    map[storage.NodeID]bool // union dedup
	node    Node
	yielded int
	capped  bool // Limit reached; next Next() terminates the stream
	done    bool
	closed  bool
	err     error
}

// Stream opens a cursor over the path's results. Unsorted queries deliver
// incrementally (the first node is available long before the last is
// computed); a sorted single path is order-enforced at the producer (the
// engine sees every match before the first is delivered) and then streams
// the sorted sequence; a sorted union is delivered buffered, after the
// cross-branch merge. Streaming queries execute solo — they never join a
// gang-shared scheduler, since their production is paced by the consumer.
// A full admission queue makes Stream wait; TryStream sheds instead.
func (s *Session) Stream(ctx context.Context, path string, opts QueryOptions) (*Cursor, error) {
	return s.stream(ctx, path, opts, false, true)
}

// TryStream is Stream with non-blocking admission: it fails immediately
// with ErrOverloaded when the engine's queue is full. Union shedding
// matches TryDo: the decision is made on the first branch.
func (s *Session) TryStream(ctx context.Context, path string, opts QueryOptions) (*Cursor, error) {
	return s.stream(ctx, path, opts, true, true)
}

func (s *Session) stream(ctx context.Context, path string, opts QueryOptions, try, live bool) (*Cursor, error) {
	branches, err := xpathParseUnion(s.eng.db, path)
	if err != nil {
		return nil, err
	}
	queries, live := engineQueries(path, branches, nil, opts, live)
	cctx, cancel := opts.context(ctx)

	// Submit every branch before reading so union branches enter one gang;
	// the dispatcher drains the queue independently of this goroutine, so
	// sequential Submit calls cannot deadlock.
	pendings := make([]*engine.Pending, 0, len(queries))
	for i, q := range queries {
		var p *engine.Pending
		var perr error
		if try && i == 0 {
			p, perr = s.s.TrySubmit(cctx, q)
		} else {
			p, perr = s.s.Submit(cctx, q)
		}
		if perr != nil {
			// Already-submitted branches settle through the cancelled
			// context; their producers unblock on it.
			cancel()
			return nil, wrapErr("submit", path, perr)
		}
		pendings = append(pendings, p)
	}
	return &Cursor{db: s.eng.db, path: path, opts: opts, ctx: cctx, cancel: cancel,
		pend: pendings, live: live}, nil
}

// Next advances the cursor to the next result node, reporting false when
// the stream is exhausted, failed, closed, or capped by Limit. After a
// false, Err distinguishes completion (nil) from failure.
func (c *Cursor) Next() bool {
	if c.done || c.closed {
		return false
	}
	if c.capped {
		c.finish()
		return false
	}
	if c.live {
		return c.nextLive()
	}
	return c.nextBuffered()
}

// Node returns the node Next positioned the cursor on.
func (c *Cursor) Node() Node { return c.node }

// Err returns the error that terminated the stream, nil on clean
// completion (including a Limit cut or an explicit Close).
func (c *Cursor) Err() error { return c.err }

// Count returns how many nodes the cursor has yielded so far.
func (c *Cursor) Count() int { return c.yielded }

// Summary returns the query's aggregated execution summary — resolved
// strategy, cost-model choice, virtual costs, gang/shared info — once the
// stream has terminated (Next returned false, or Close was called). The
// summary of a live stream covers the branches that completed cleanly; its
// Nodes field is nil (nodes were delivered through the cursor).
func (c *Cursor) Summary() (ExecResult, bool) {
	if !c.sumOK {
		return ExecResult{}, false
	}
	return c.sum, true
}

// Close terminates the stream: it cancels the underlying query (stopping
// the producer at its next poll point and withdrawing in-flight cluster
// prefetches), unblocks and settles every branch, and releases pooled
// resources. Idempotent; always returns nil.
func (c *Cursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	c.finish()
	return nil
}

// settle cancels whatever is still running, drains every branch not yet
// harvested so no producer stays blocked on its sink, keeps the clean
// branch summaries, and waits for a DB-level query's goroutine to exit.
// This is what makes every way a stream ends leak-free: the engine always
// finishes a Pending, because cancellation stops it at the next poll
// point.
func (c *Cursor) settle() {
	c.cancel()
	for ; c.cur < len(c.pend); c.cur++ {
		p := c.pend[c.cur]
		if ch := p.C(); ch != nil {
			for range ch {
			}
		}
		if res, err := p.Wait(context.Background()); err == nil {
			c.bres = append(c.bres, res)
		}
	}
	if c.exited != nil {
		<-c.exited
	}
	c.done = true
}

// finish ends the stream cleanly (exhausted, Limit-capped or closed):
// remaining production is settled and, unless the stream failed, the
// summary is built from the branches that completed.
func (c *Cursor) finish() {
	c.settle()
	if !c.sumOK && c.err == nil {
		c.sum = aggregateBranches(c.bres)
		c.sumOK = true
	}
}

// nextLive pulls the next node from the engine sinks, branch by branch in
// submission order, deduplicating across union branches on the fly.
func (c *Cursor) nextLive() bool {
	for {
		if c.cur >= len(c.pend) {
			c.finish()
			return false
		}
		r, ok := <-c.pend[c.cur].C()
		if !ok {
			res, err := c.pend[c.cur].Wait(c.ctx)
			if err != nil {
				c.fail(err)
				return false
			}
			c.bres = append(c.bres, res)
			c.cur++
			continue
		}
		if !c.fresh(r.Node) {
			continue
		}
		c.yield(Node{db: c.db, id: r.Node})
		return true
	}
}

// fresh reports whether id has not been delivered before — the node-set
// semantics of a union; single paths never repeat a node.
func (c *Cursor) fresh(id storage.NodeID) bool {
	if len(c.pend) < 2 {
		return true
	}
	if c.seen == nil {
		c.seen = make(map[storage.NodeID]bool)
	}
	if c.seen[id] {
		return false
	}
	c.seen[id] = true
	return true
}

// nextBuffered waits for every branch once, merges them exactly like the
// buffered call path, then yields the merged nodes one at a time.
func (c *Cursor) nextBuffered() bool {
	if !c.merged {
		c.mergeBuffered()
		if c.err != nil {
			return false
		}
	}
	if c.idx >= len(c.sum.Nodes) {
		c.finish()
		return false
	}
	c.yield(c.sum.Nodes[c.idx])
	c.idx++
	return true
}

func (c *Cursor) yield(n Node) {
	c.node = n
	c.yielded++
	if c.opts.Limit > 0 && c.yielded >= c.opts.Limit {
		c.capped = true
	}
}

func (c *Cursor) fail(err error) {
	c.err = wrapErr("query", c.path, err)
	c.settle()
}

// mergeBuffered combines the branch results into one ExecResult — the Do
// semantics: union branches dedup as a node set, sorted unions re-sort,
// Limit truncates the final sequence.
func (c *Cursor) mergeBuffered() {
	c.merged = true
	for ; c.cur < len(c.pend); c.cur++ {
		res, err := c.pend[c.cur].Wait(c.ctx)
		if err != nil {
			c.fail(err)
			return
		}
		c.bres = append(c.bres, res)
	}
	out := aggregateBranches(c.bres)

	var all []core.Result
	for _, r := range c.bres {
		for _, x := range r.Results {
			if c.fresh(x.Node) {
				all = append(all, x)
			}
		}
	}
	if len(c.pend) > 1 && c.opts.Sorted {
		sort.Slice(all, func(i, j int) bool {
			return ordpath.Compare(all[i].Ord, all[j].Ord) < 0
		})
	}
	if c.opts.Limit > 0 && len(all) > c.opts.Limit {
		all = all[:c.opts.Limit]
	}
	out.Nodes = make([]Node, len(all))
	for i, r := range all {
		out.Nodes[i] = Node{db: c.db, id: r.Node}
	}
	c.sum = out
	c.sumOK = true
}

// Drain consumes the rest of the stream and returns it as a buffered
// ExecResult — the bridge from cursor to one-shot semantics. Session.Do and
// DB.QueryCtx are exactly cursor-then-Drain.
func (c *Cursor) Drain() (ExecResult, error) {
	if !c.live {
		// A buffered cursor already materializes the exact Do result.
		if !c.merged {
			c.mergeBuffered()
		}
		return c.sum, c.err
	}
	var nodes []Node
	for c.Next() {
		nodes = append(nodes, c.Node())
	}
	if c.err != nil {
		return ExecResult{}, c.err
	}
	res, _ := c.Summary()
	res.Nodes = nodes
	return res, nil
}

// aggregateBranches folds branch summaries into one ExecResult (no nodes):
// costs sum, shared flags or, and the virtual latency spans the earliest
// submit to the latest done.
func aggregateBranches(branch []engine.Result) ExecResult {
	if len(branch) == 0 {
		return ExecResult{}
	}
	out := ExecResult{Strategy: fromCore(branch[0].Strategy), Gang: branch[0].Gang}
	if ch := branch[0].Choice; ch != nil {
		pc := fromPlanChoice(*ch)
		out.Choice = &pc
	}
	minSubmit, maxDone := branch[0].SubmitV, branch[0].DoneV
	for _, r := range branch {
		out.Shared = out.Shared || r.Shared
		out.CostV += r.CostV
		out.CPUV += r.CPUV
		out.IOWaitV += r.IOWaitV
		out.SharedV += r.SharedV
		out.WallQueue += r.WallQueue
		out.WallExec += r.WallExec
		if r.SubmitV < minSubmit {
			minSubmit = r.SubmitV
		}
		if r.DoneV > maxDone {
			maxDone = r.DoneV
		}
	}
	out.VirtualLatency = maxDone - minSubmit
	return out
}

// QueryStream opens a cursor over the path's results on the DB's own
// executor: the streaming counterpart of DB.QueryCtx, and Session.Stream
// without an Engine. Delivery follows Session.Stream (live for unsorted
// queries and a sorted single path, buffered for a sorted union). A live
// query runs on one goroutine, which the final Next or Close waits for.
// Like QueryCtx it pins one snapshot and is safe beside concurrent
// queries and Updates.
func (db *DB) QueryStream(ctx context.Context, path string, opts QueryOptions) (*Cursor, error) {
	branches, err := xpathParseUnion(db, path)
	if err != nil {
		return nil, err
	}
	return db.run(ctx, path, branches, nil, opts, true), nil
}
