package pathdb

import (
	"context"

	"pathdb/internal/stats"
	"pathdb/internal/storage"
	"pathdb/internal/vdisk"
	"pathdb/internal/xpath"
)

// QueryCtx evaluates an absolute location path (or a '|' union of paths)
// on the DB and returns the buffered result: Session.Do without an Engine,
// with the same QueryOptions, the same gang executor (one worker) and the
// same accounting. It runs on the caller's goroutine and pins one snapshot
// of the volume, so it is safe beside concurrent queries and Updates. The context cancels or
// deadlines the evaluation at the next operator poll point; page faults
// raised by the fault plane surface as the typed *Error (KindIO or
// KindCorrupt) instead of a panic.
func (db *DB) QueryCtx(ctx context.Context, path string, opts QueryOptions) (res ExecResult, err error) {
	branches, err := xpathParseUnion(db, path)
	if err != nil {
		return ExecResult{}, err
	}
	c := db.run(ctx, path, branches, nil, opts, false)
	defer c.Close()
	return c.Drain()
}

// run opens a cursor over one query's union branches on the DB's own
// executor — the engine's gang executor with one worker and no
// dispatcher. A buffered gang runs before run returns; a live one runs on
// one goroutine that the cursor waits for when it ends. contexts nil
// means the volume roots.
func (db *DB) run(ctx context.Context, path string, branches [][]xpath.Step, contexts []storage.NodeID, opts QueryOptions, live bool) *Cursor {
	queries, live := engineQueries(path, branches, contexts, opts, live)
	cctx, cancel := opts.context(ctx)
	pend, exited := db.exec.Run(cctx, queries)
	return &Cursor{db: db, path: path, opts: opts, ctx: cctx, cancel: cancel,
		pend: pend, live: live, exited: exited}
}

// FaultConfig arms the DB's deterministic fault plane — the facade over
// the simulated disk's seeded per-operation fault schedule. Probabilities
// are per page read; the zero value disarms all faults. Identical seeds
// reproduce identical fault sequences, so failing runs replay exactly.
type FaultConfig struct {
	// Seed drives the fault plane's private RNG.
	Seed uint64
	// ReadError is the probability a read fails with a transient I/O
	// error (storage retries with backoff before escalating to KindIO).
	ReadError float64
	// Corrupt is the probability a read returns a torn page image
	// (caught by checksum verification; persistent damage escalates to
	// KindCorrupt).
	Corrupt float64
	// Latency is the probability a read is delayed by Spike.
	Latency float64
	// Spike is the added virtual latency per spike (default 5ms).
	Spike stats.Ticks
}

// SetFaults arms (or, with the zero FaultConfig, disarms) fault injection
// on the DB's simulated disk. Call between queries, not concurrently with
// them.
func (db *DB) SetFaults(f FaultConfig) {
	db.store.Disk().SetFaults(vdisk.Faults{
		Seed:      f.Seed,
		ReadError: f.ReadError,
		Corrupt:   f.Corrupt,
		Latency:   f.Latency,
		Spike:     f.Spike,
	})
}
