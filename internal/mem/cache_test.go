package mem

import (
	"testing"
	"testing/quick"
)

func testCacheConfig() CacheConfig {
	return CacheConfig{Name: "T", SizeBytes: 4096, LineBytes: 128, Assoc: 2}
}

func TestCacheConfigValidate(t *testing.T) {
	good := testCacheConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.LineBytes = 100
	if err := bad.Validate(); err == nil {
		t.Fatal("accepted non-power-of-two line size")
	}
	bad = good
	bad.Assoc = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("accepted zero associativity")
	}
	bad = good
	bad.Assoc = maxAssoc + 1
	if err := bad.Validate(); err == nil {
		t.Fatal("accepted associativity above maxAssoc")
	}
	bad = good
	bad.SizeBytes = 4096 + 128
	if err := bad.Validate(); err == nil {
		t.Fatal("accepted non-power-of-two set count")
	}
}

func TestCacheHitMiss(t *testing.T) {
	c := newCache(testCacheConfig())
	if c.lookup(0x1000) != nil {
		t.Fatal("hit in empty cache")
	}
	c.insert(0x1000, Exclusive, 0)
	if l := c.lookup(0x1000); l == nil || l.state != Exclusive {
		t.Fatal("miss after insert")
	}
	// Same line, different offset within the 128-byte line.
	if c.lookup(0x1000+64) == nil {
		t.Fatal("intra-line offset missed")
	}
	// Different line.
	if c.lookup(0x1080) != nil {
		t.Fatal("hit on neighbouring line")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newCache(testCacheConfig()) // 16 sets, 2-way
	// Three lines mapping to the same set: stride = sets*line = 16*128.
	const stride = 16 * 128
	a, b, x := uint64(0x10000), uint64(0x10000+stride), uint64(0x10000+2*stride)
	c.insert(a, Shared, 0)
	c.insert(b, Shared, 0)
	c.lookup(a) // make b the LRU
	victim, evicted := c.insert(x, Shared, 0)
	if !evicted {
		t.Fatal("no eviction from full set")
	}
	if got := c.victimAddr(victim); got != b {
		t.Fatalf("evicted %#x, want %#x (LRU)", got, b)
	}
	if c.lookup(a) == nil || c.lookup(x) == nil || c.lookup(b) != nil {
		t.Fatal("post-eviction contents wrong")
	}
}

func TestCacheInsertSameTagUpdates(t *testing.T) {
	c := newCache(testCacheConfig())
	c.insert(0x2000, Shared, 10)
	_, evicted := c.insert(0x2000, Modified, 20)
	if evicted {
		t.Fatal("re-insert of same tag evicted")
	}
	l := c.lookup(0x2000)
	if l.state != Modified || l.readyAt != 20 {
		t.Fatalf("re-insert did not update: %+v", l)
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := newCache(testCacheConfig())
	c.insert(0x3000, Modified, 0)
	found, wasM := c.invalidate(0x3000)
	if !found || !wasM {
		t.Fatalf("invalidate = %v,%v", found, wasM)
	}
	if c.lookup(0x3000) != nil {
		t.Fatal("line survived invalidation")
	}
	found, _ = c.invalidate(0x3000)
	if found {
		t.Fatal("invalidate found an invalid line")
	}
}

func TestCachePeekDoesNotTouchLRU(t *testing.T) {
	c := newCache(testCacheConfig())
	const stride = 16 * 128
	a, b, x := uint64(0x10000), uint64(0x10000+stride), uint64(0x10000+2*stride)
	c.insert(a, Shared, 0)
	c.insert(b, Shared, 0)
	c.peek(a) // must NOT refresh a
	victim, _ := c.insert(x, Shared, 0)
	if got := c.victimAddr(victim); got != a {
		t.Fatalf("peek touched LRU: evicted %#x, want %#x", got, a)
	}
}

func TestCachePropertyInsertedLineIsFound(t *testing.T) {
	c := newCache(CacheConfig{Name: "P", SizeBytes: 64 << 10, LineBytes: 128, Assoc: 8})
	prop := func(addrs []uint32) bool {
		if len(addrs) > 8 {
			addrs = addrs[:8] // stay within one working set's associativity
		}
		for _, a := range addrs {
			addr := uint64(a) &^ 127 % (32 << 10) // confine to a few sets
			c.insert(addr, Exclusive, 0)
			if c.lookup(addr) == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestUnfilledBlocksMissWithoutAllocating: cache blocks are allocated by
// the first insert into them and by nothing else. A line whose blocks
// were never filled misses in lookup, peek, invalidate and a snoop,
// without allocating, and its blocks stay views of the shared unfilled
// block; so does the L1 of a CPU whose FP-loaded copy a remote store
// invalidates. Nothing writes the shared block.
func TestUnfilledBlocksMissWithoutAllocating(t *testing.T) {
	d := smpDomain(t, 2)
	h := d.hiers[0]
	caches := []*cache{h.l1, h.l2, h.l3}
	for i, want := range []int{1, 4, 16} { // 64, 256 and 1024 sets
		if n := len(caches[i].blocks); n != want {
			t.Fatalf("%s: %d blocks, want %d", caches[i].cfg.Name, n, want)
		}
	}
	isUnfilled := func(b []line) bool { return &b[0] == &unfilled[0] }
	block := func(c *cache, addr uint64) []line {
		return c.blocks[c.lineAddr(addr)&c.setMask>>c.blockShift]
	}
	allocated := func(c *cache) (n int) {
		for _, b := range c.blocks {
			if !isUnfilled(b) {
				n++
			}
		}
		return n
	}

	access(d, 0, testAddr, LoadFP, 0) // fills one L2 and one L3 block; L1D is bypassed
	for i, want := range []int{0, 1, 1} {
		if n := allocated(caches[i]); n != want {
			t.Fatalf("%s: %d blocks allocated after one FP load, want %d", caches[i].cfg.Name, n, want)
		}
	}
	const far = testAddr + blockSets*128 // the next block of the L2 and of the L3
	miss := func() {
		for _, c := range caches {
			if c.lookup(far) != nil || c.peek(far) != nil {
				t.Fatalf("%s: hit on a line never filled", c.cfg.Name)
			}
			if found, _ := c.invalidate(far); found {
				t.Fatalf("%s: invalidated a line never filled", c.cfg.Name)
			}
		}
		if sr := d.snoop(1, far, true); sr.HitM || sr.HitClean || sr.OwnerCPU != -1 {
			t.Fatalf("snoop of a line never filled found %+v", sr)
		}
	}
	if allocs := testing.AllocsPerRun(100, miss); allocs != 0 {
		t.Fatalf("misses on unfilled blocks allocate %.0f objects, want 0", allocs)
	}
	for _, c := range caches {
		if !isUnfilled(block(c, far)) {
			t.Fatalf("%s: a miss allocated the line's block", c.cfg.Name)
		}
	}

	access(d, 1, testAddr, Store, 1000) // invalidates cpu0's copy, L1 included
	if s := d.Probe(0, testAddr); s != Invalid {
		t.Fatalf("cpu0 holds the line %v after a remote store", s)
	}
	if allocated(h.l1) != 0 {
		t.Fatal("the snoop's L1 invalidation allocated cpu0's L1 block")
	}
	if unfilled != [len(unfilled)]line{} {
		t.Fatal("a line of the shared unfilled block was written")
	}
}
