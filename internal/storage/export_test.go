package storage

// Test-only exports for the external storage_test package, whose update
// tests commit through internal/txn (which imports this package, so they
// cannot live in package storage).

var (
	NewDisk      = newDisk
	ImportDoc    = importDoc
	BuildTree    = buildTree
	EvalStepFull = evalStepFull
)

// PhysicalChildren returns cursors on the records in c's physical child
// list, in list order: core children and ProxyChild borders alike, without
// crossing into the fragments the borders lead to.
func PhysicalChildren(c Cursor) []Cursor {
	kids := c.rec().children
	out := make([]Cursor, len(kids))
	for i, slot := range kids {
		out[i] = Cursor{st: c.st, img: c.img, page: c.page, slot: slot, attr: -1}
	}
	return out
}
