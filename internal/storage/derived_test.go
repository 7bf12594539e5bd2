package storage

import (
	"fmt"
	"testing"

	"pathdb/internal/vdisk"
)

// TestDerivedCacheGenerations pins the epoch-generation contract: entries
// are visible only at the epoch they were admitted under, a newer epoch
// replaces the generation wholesale, and a stale (older-epoch) Put is
// dropped rather than shadowing the current generation.
func TestDerivedCacheGenerations(t *testing.T) {
	c := newDerivedCache()

	c.Put(0, "a", 1)
	if v, ok := c.Get(0, "a"); !ok || v.(int) != 1 {
		t.Fatalf("epoch-0 entry lost: %v %v", v, ok)
	}
	if _, ok := c.Get(1, "a"); ok {
		t.Fatal("entry visible at a later epoch")
	}

	// A newer generation evicts everything from the old one.
	c.Put(2, "b", 2)
	if _, ok := c.Get(0, "a"); ok {
		t.Fatal("old generation survived an epoch advance")
	}
	if v, ok := c.Get(2, "b"); !ok || v.(int) != 2 {
		t.Fatalf("new generation entry lost: %v %v", v, ok)
	}

	// A query pinned to a superseded snapshot must not poison the cache.
	c.Put(1, "stale", 3)
	if _, ok := c.Get(1, "stale"); ok {
		t.Fatal("stale-epoch Put was admitted")
	}
	if v, ok := c.Get(2, "b"); !ok || v.(int) != 2 {
		t.Fatal("stale Put disturbed the current generation")
	}

	// reset drops entries but keeps the generation epoch.
	c.reset()
	if _, ok := c.Get(2, "b"); ok {
		t.Fatal("entry survived reset")
	}
	c.Put(2, "b", 4)
	if v, ok := c.Get(2, "b"); !ok || v.(int) != 4 {
		t.Fatal("cache unusable after reset")
	}
}

// TestDerivedCacheBounded checks the generation's entry cap: overflowing
// inserts are dropped, not admitted unboundedly.
func TestDerivedCacheBounded(t *testing.T) {
	c := newDerivedCache()
	for i := 0; i < maxDerivedEntries+10; i++ {
		c.Put(5, fmt.Sprintf("k%d", i), i)
	}
	n := 0
	for i := 0; i < maxDerivedEntries+10; i++ {
		if _, ok := c.Get(5, fmt.Sprintf("k%d", i)); ok {
			n++
		}
	}
	if n != maxDerivedEntries {
		t.Fatalf("generation holds %d entries, cap is %d", n, maxDerivedEntries)
	}
}

// TestStoreDerivedViews checks the Store wiring: views share the base
// store's cache, and a write transaction's overlay view opts out.
func TestStoreDerivedViews(t *testing.T) {
	s := newStore(newDisk(4096), nil, []NodeID{0}, 1, 0)
	base, epoch, ok := s.Derived()
	if !ok || base == nil {
		t.Fatal("base store has no derived cache")
	}
	view := s.Reader(s.led)
	vc, vepoch, ok := view.Derived()
	if !ok || vc != base || vepoch != epoch {
		t.Fatal("reader view does not share the base derived cache")
	}
	ov := s.Reader(s.led)
	ov.overlay = map[vdisk.PageID]*pageImage{}
	if _, _, ok := ov.Derived(); ok {
		t.Fatal("overlay view must not use the derived cache")
	}
}
