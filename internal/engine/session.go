package engine

import (
	"context"
	"time"

	"pathdb/internal/core"
	"pathdb/internal/stats"
)

// Session is a submission handle on an engine. Many sessions submit
// concurrently; each session's methods may also be called from several
// goroutines (the session carries no mutable state).
type Session struct {
	e *Engine
}

// streamDepth is the per-query sink buffer: a streaming producer runs
// ahead of its consumer by at most this many results before the channel
// send blocks (back-pressure at the operator poll point). Queries at or
// under this cardinality complete without ever waiting on the consumer.
const streamDepth = 64

// Pending is an admitted query waiting for (or holding) its outcome.
type Pending struct {
	ctx context.Context
	q   Query

	submitW time.Time
	submitV stats.Ticks // volume clock at submission

	// sink carries results incrementally for streaming queries (Query.
	// Stream); nil for buffered queries. It is closed by finish, so a
	// consumer ranging over C() always unblocks when the query settles.
	sink chan core.Result
	sent int // results emitted into sink (producer side)

	done chan struct{}
	res  Result
	err  error
}

// finish completes the waiter exactly once (dispatcher side).
func (p *Pending) finish(res Result, err error) {
	p.res, p.err = res, err
	close(p.done)
	if p.sink != nil {
		close(p.sink)
	}
}

// C is the result stream of a streaming query: one core.Result per match,
// closed when the query settles. Nil for buffered queries. The summary
// Result (costs, strategy, gang) is available from Wait after C closes.
func (p *Pending) C() <-chan core.Result { return p.sink }

// Wait blocks until the query finishes or ctx is done. A Wait abandoned by
// its caller does not cancel the query — cancel the submission context for
// that.
func (p *Pending) Wait(ctx context.Context) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-p.done:
		return p.res, p.err
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
}

func (e *Engine) newPending(ctx context.Context, q Query) *Pending {
	if ctx == nil {
		ctx = context.Background()
	}
	p := &Pending{
		ctx:     ctx,
		q:       q,
		submitW: time.Now(),
		submitV: e.store.Ledger().Total(),
		done:    make(chan struct{}),
	}
	if q.Stream {
		p.sink = make(chan core.Result, streamDepth)
	}
	return p
}

// TrySubmit admits q without blocking. It returns ErrQueueFull when the
// admission queue is at capacity — the load-shedding half of admission
// control — and ErrClosed after Close.
func (s *Session) TrySubmit(ctx context.Context, q Query) (*Pending, error) {
	p := s.e.newPending(ctx, q)
	if err := p.ctx.Err(); err != nil {
		return nil, err
	}
	s.e.admit.RLock()
	defer s.e.admit.RUnlock()
	if s.e.closed.Load() {
		return nil, ErrClosed
	}
	select {
	case s.e.queue <- p:
		s.e.submitted.Add(1)
		return p, nil
	default:
		s.e.rejected.Add(1)
		return nil, ErrQueueFull
	}
}

// Submit admits q, blocking while the admission queue is full — the
// backpressure half of admission control. It fails with the context's
// error if ctx is done first, and with ErrClosed if the engine shuts down.
func (s *Session) Submit(ctx context.Context, q Query) (*Pending, error) {
	p := s.e.newPending(ctx, q)
	if err := p.ctx.Err(); err != nil {
		return nil, err
	}
	// The read lock pairs with Engine.shutAdmission: a submission holds it
	// across the closed check and the queue send, so shutdown cannot slip
	// between them and strand the Pending. The dispatcher stays live until
	// shutAdmission returns, so a send blocked on a full queue still
	// drains.
	s.e.admit.RLock()
	defer s.e.admit.RUnlock()
	if s.e.closed.Load() {
		return nil, ErrClosed
	}
	select {
	case s.e.queue <- p:
		s.e.submitted.Add(1)
		return p, nil
	case <-p.ctx.Done():
		return nil, p.ctx.Err()
	case <-s.e.stop:
		return nil, ErrClosed
	}
}

// Do submits q and waits for its result.
func (s *Session) Do(ctx context.Context, q Query) (Result, error) {
	p, err := s.Submit(ctx, q)
	if err != nil {
		return Result{}, err
	}
	return p.Wait(ctx)
}
