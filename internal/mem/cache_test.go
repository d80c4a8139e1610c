package mem

import (
	"testing"
	"testing/quick"
)

func testCacheConfig() CacheConfig {
	return CacheConfig{Name: "T", SizeBytes: 4096, LineBytes: 128, Assoc: 2, HitLatency: 1}
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
	c := newCache(CacheConfig{Name: "P", SizeBytes: 64 << 10, LineBytes: 128, Assoc: 8, HitLatency: 1})
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
