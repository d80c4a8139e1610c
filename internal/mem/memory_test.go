package mem

import "testing"

func TestMemoryAllocAndAccess(t *testing.T) {
	m := NewMemory(1<<20, 16<<10)
	a, err := m.Alloc("x", 1024, 128)
	if err != nil {
		t.Fatal(err)
	}
	if a%128 != 0 {
		t.Fatalf("alloc not aligned: %#x", a)
	}
	m.WriteF64(a, 3.5)
	if got := m.ReadF64(a); got != 3.5 {
		t.Fatalf("ReadF64 = %v", got)
	}
	m.WriteI64(a+8, -7)
	if got := m.ReadI64(a + 8); got != -7 {
		t.Fatalf("ReadI64 = %v", got)
	}
}

func TestMemoryAllocExhaustion(t *testing.T) {
	m := NewMemory(64<<10, 16<<10)
	if _, err := m.Alloc("big", 1<<20, 8); err == nil {
		t.Fatal("allocated beyond memory size")
	}
}

func TestMemoryAllocBadAlignment(t *testing.T) {
	m := NewMemory(1<<20, 16<<10)
	if _, err := m.Alloc("x", 8, 3); err == nil {
		t.Fatal("accepted non-power-of-two alignment")
	}
}

func TestMemorySegments(t *testing.T) {
	m := NewMemory(1<<20, 16<<10)
	a := m.MustAlloc("x", 256, 8)
	m.MustAlloc("y", 256, 8)
	seg, ok := m.SegmentFor(a + 100)
	if !ok || seg.Name != "x" {
		t.Fatalf("SegmentFor = %+v, %v", seg, ok)
	}
	if _, ok := m.SegmentFor(0); ok {
		t.Fatal("SegmentFor(0) found a segment")
	}
	if len(m.Segments()) != 2 {
		t.Fatalf("Segments = %v", m.Segments())
	}
}

func TestMemoryOutOfRangePanics(t *testing.T) {
	m := NewMemory(64<<10, 16<<10)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range read did not panic")
		}
	}()
	m.ReadI64(1 << 20)
}

func TestMemoryNullPagePanics(t *testing.T) {
	m := NewMemory(64<<10, 16<<10)
	defer func() {
		if recover() == nil {
			t.Fatal("read of page 0 did not panic")
		}
	}()
	m.ReadI64(0)
}

func TestFirstTouchAndReset(t *testing.T) {
	m := NewMemory(1<<20, 16<<10)
	if n := m.PeekHomeNode(0x8000); n != -1 {
		t.Fatalf("untouched page home = %d, want -1", n)
	}
	if n := m.HomeNode(0x8000, 3); n != 3 {
		t.Fatalf("first touch home = %d, want 3", n)
	}
	if n := m.HomeNode(0x8000, 1); n != 3 {
		t.Fatalf("second touch moved page to %d", n)
	}
}

func TestNUMAHops(t *testing.T) {
	n := NewNUMANodes(LatencyParams{}, AltixNUMA(8).NodeList())
	if h := n.Hops(0, 0); h != 0 {
		t.Fatalf("Hops(0,0) = %d", h)
	}
	if h := n.Hops(0, 1); h != 2 {
		t.Fatalf("Hops(0,1) = %d, want 2", h)
	}
	if h01, h03 := n.Hops(0, 1), n.Hops(0, 3); h03 <= h01 {
		t.Fatalf("fat-tree distance not increasing: Hops(0,1)=%d Hops(0,3)=%d", h01, h03)
	}
	if n.NodeOf(5) != 2 {
		t.Fatalf("NodeOf(5) = %d, want 2", n.NodeOf(5))
	}
}

func TestBusTopology(t *testing.T) {
	b := NewBus(LatencyParams{Memory: 100, BusOccupancyData: 10})
	if b.NodeOf(3) != 0 || b.Hops(0, 1) != 0 {
		t.Fatal("bus topology must be flat")
	}
	done := b.Transact(0, 0, TxnRead, SnoopResult{}, 0)
	if done != 100 {
		t.Fatalf("bus read done = %d, want 100", done)
	}
	// Second transaction at cycle 0 queues behind the first's occupancy.
	done2 := b.Transact(1, 0, TxnRead, SnoopResult{}, 0)
	if done2 != 110 {
		t.Fatalf("queued bus read done = %d, want 110", done2)
	}
}
