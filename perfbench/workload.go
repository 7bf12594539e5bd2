package main

import (
	"fmt"
	"sync/atomic"
)

// workload is one traffic mix over one volume configuration.
type workload struct {
	name string
	// clients is the closed loop's client count. The in-process workloads
	// run 2, the core count of the 2-core machine the benchmark was sized
	// on, fixed so that the workload does not change with the machine.
	// The sharded HTTP workload runs one: two concurrent NDJSON streams
	// on the router can deadlock (WORKLOADS.md, "Known program defect").
	clients int
	// mix is "paper" (heavy-tailed Q6'/Q7/Q15) or "branch" (three
	// predicate paths).
	mix string
	// frames is Options.BufferPages; 0 keeps the default 1,000-frame pool.
	frames int
	// writes turns one request in four into an <xloadpad/> insert.
	writes bool
	// shards > 0 serves the volume split across that many shards behind
	// server.Router on a loopback listener; 0 drives an in-process engine.
	shards int
	// warm runs a discarded pass over the request sequence before timing.
	warm bool
	// layerRequests is the length of the traced run's layer replay. The
	// write workloads replay 256 commits: the volume clock's growth per
	// commit is super-linear, and shows from about a hundred commits on.
	layerRequests int
}

var workloads = []workload{
	{name: "paper-cold", clients: 2, mix: "paper", frames: 64, layerRequests: 96},
	{name: "branch-warm", clients: 2, mix: "branch", warm: true, layerRequests: 96},
	{name: "rw-warm", clients: 2, mix: "paper", writes: true, warm: true, layerRequests: 1024},
	{name: "rw-shard4-http", clients: 1, mix: "paper", writes: true, shards: 4, warm: true, layerRequests: 1024},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// The query paths, as cmd/xload names them.
var (
	q6     = "/site/regions//item"
	q7     = []string{"/site//description", "/site//annotation", "/site//emailaddress"}
	q15    = "/site/closed_auctions/closed_auction/annotation/description/parlist/listitem/parlist/listitem/text/emph/keyword"
	branch = []string{
		`/site//item[.//keyword="golden"]`,
		"/site//item[mailbox/mail//keyword]",
		"/site//parlist[(listitem/parlist){1,2}]",
	}
)

// pattern holds the workload's read paths at their shares of the mix. The
// paper mix is xload's heavy-tailed q6,q7,q15 cycle: per 8 reads, four
// Q6', two Q7 (rotating over its three paths) and two Q15, so Q6' gets
// half the reads and Q7 and Q15 a quarter each.
func (w workload) pattern() []string {
	if w.mix == "branch" {
		return branch
	}
	var p []string
	for c := 0; c < len(q7); c++ {
		p = append(p, q6, q6, q6, q6, q7[(2*c)%3], q7[(2*c+1)%3], q15, q15)
	}
	return p
}

// paths returns the distinct paths of the read sequence.
func (w workload) paths() []string {
	seen := map[string]bool{}
	var out []string
	for _, p := range w.pattern() {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// isWrite reports whether request i is a write transaction: one in four,
// chosen by a Fibonacci hash of i as in cmd/xload, so writes scatter over
// both clients and meet in the group-commit window.
func (w workload) isWrite(i int64) bool {
	if !w.writes {
		return false
	}
	h := uint64(i) * 0x9E3779B97F4A7C15
	return (h>>33)%4 == 0
}

// schedule hands out the request sequence to concurrent clients: request
// i is a write or the next read. Reads walk the pattern in blocks, each
// block a permutation of the pattern drawn from the seed, so every block
// keeps the mix's exact shares while the pairs of paths that two clients
// run side by side vary within a run. A strict rotation lets the clients
// lock into one pairing for a whole run and another for the next, which
// moved latency medians by a third between runs; independent draws per
// read moved the mean cost by as much as the mix shares wandered.
type schedule struct {
	w         workload
	seed      uint64
	pattern   []string
	allWrites bool
	reqs      atomic.Int64
	reads     atomic.Int64
}

func newSchedule(w workload, seed uint64) *schedule {
	return &schedule{w: w, seed: seed, pattern: w.pattern()}
}

// newWriteSchedule makes every request a write: the commit probe of the
// read-only workloads.
func newWriteSchedule(w workload, seed uint64) *schedule {
	return &schedule{w: w, seed: seed, pattern: w.pattern(), allWrites: true}
}

// next returns the request's index, whether it is a write, and the path
// of a read.
func (s *schedule) next() (i int64, write bool, path string) {
	i = s.reqs.Add(1) - 1
	if s.allWrites || s.w.isWrite(i) {
		return i, true, ""
	}
	k := uint64(s.reads.Add(1) - 1)
	n := uint64(len(s.pattern))
	return i, false, s.pattern[permute(k%n, n, s.seed^splitmix(k/n))]
}

// permute returns the image of pos under the permutation of [0, n) that
// a Fisher-Yates shuffle seeded with key draws.
func permute(pos, n, key uint64) int {
	var idx [maxPattern]int
	for j := range idx[:n] {
		idx[j] = j
	}
	for j := n - 1; j > 0; j-- {
		key = splitmix(key)
		r := key % (j + 1)
		idx[j], idx[r] = idx[r], idx[j]
	}
	return idx[pos]
}

// maxPattern bounds a pattern's length, so permute needs no allocation.
const maxPattern = 32

// splitmix is the SplitMix64 finalizer: a cheap, well-mixed hash.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// fragment is the write payload: it matches no mix path, so the oracle's
// expected counts hold through every commit.
const fragment = "<xloadpad/>"
