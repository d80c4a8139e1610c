package mem

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Chunking granularity of the backing store. Physical memory is materialized
// in fixed-size chunks on first write, so building a machine with the
// paper's 256 MB memory costs a pointer table, not a 256 MB clear, and a
// session pays for the chunks its program writes: a DAXPY over a few KB
// materializes one 64 KB chunk, where a 1 MB chunk zeroed 16 times as much.
const (
	chunkShift = 16 // 64 KB chunks
	chunkBytes = 1 << chunkShift
	chunkMask  = chunkBytes - 1
)

// Memory is the flat simulated physical memory: a byte-addressed backing
// store with a bump allocator for named segments and per-page NUMA home
// nodes assigned by first-touch (the SGI Altix policy the paper relies on).
//
// The backing store is sparse: chunks materialize on first write and reads
// of untouched memory return zero, exactly as the previous eagerly-zeroed
// array behaved.
type Memory struct {
	size     uint64
	chunks   []*[chunkBytes]byte // nil until first write to the chunk
	pageSize uint64
	home     []int16 // page index -> node, -1 until first touch
	brk      uint64
	segs     []Segment

	// place is the placement-policy engine (placement.go). The zero value
	// is single-node first-touch — the pre-scenario-matrix behaviour.
	place placement
}

// Segment records a named allocation (an array of a workload).
type Segment struct {
	Name string
	Base uint64
	Size uint64
}

// NewMemory creates a memory of size bytes with the given NUMA page size.
func NewMemory(size, pageSize uint64) *Memory {
	if pageSize == 0 || pageSize&(pageSize-1) != 0 {
		panic(fmt.Sprintf("mem: page size %d not a power of two", pageSize))
	}
	npages := (size + pageSize - 1) / pageSize
	m := &Memory{
		size:     size,
		chunks:   make([]*[chunkBytes]byte, (size+chunkMask)>>chunkShift),
		pageSize: pageSize,
		home:     make([]int16, npages),
		brk:      pageSize, // keep address 0 unmapped to catch null derefs
	}
	for i := range m.home {
		m.home[i] = -1
	}
	return m
}

// Size returns the memory size in bytes.
func (m *Memory) Size() uint64 { return m.size }

// Alloc reserves size bytes aligned to align (power of two, at least 8) and
// returns the base address.
func (m *Memory) Alloc(name string, size, align uint64) (uint64, error) {
	if align == 0 {
		align = 8
	}
	if align&(align-1) != 0 {
		return 0, fmt.Errorf("mem: alloc %s alignment %d not a power of two", name, align)
	}
	base := (m.brk + align - 1) &^ (align - 1)
	if base+size > m.size {
		return 0, fmt.Errorf("mem: out of memory allocating %s (%d bytes at %#x)", name, size, base)
	}
	m.brk = base + size
	m.segs = append(m.segs, Segment{Name: name, Base: base, Size: size})
	return base, nil
}

// MustAlloc is Alloc that panics on exhaustion (workload setup paths).
func (m *Memory) MustAlloc(name string, size, align uint64) uint64 {
	a, err := m.Alloc(name, size, align)
	if err != nil {
		panic(err)
	}
	return a
}

// Segments returns the allocation table.
func (m *Memory) Segments() []Segment {
	out := make([]Segment, len(m.segs))
	copy(out, m.segs)
	return out
}

// SegmentFor returns the segment containing addr, if any. COBRA's profiler
// uses it to attribute delinquent loads to data structures.
func (m *Memory) SegmentFor(addr uint64) (Segment, bool) {
	for _, s := range m.segs {
		if addr >= s.Base && addr < s.Base+s.Size {
			return s, true
		}
	}
	return Segment{}, false
}

// Contains reports whether the n bytes at addr lie in simulated memory
// above the unmapped first page. It is the bound of every access: a
// simulated CPU faults a load or store that fails it and drops such a
// prefetch, and the host-side reads and writes below panic on it. For n
// no larger than the memory the comparison cannot wrap, so an address
// near 2^64 fails it too.
func (m *Memory) Contains(addr, n uint64) bool {
	return addr >= m.pageSize && addr <= m.size-n
}

func (m *Memory) check(addr uint64, n uint64) {
	if !m.Contains(addr, n) {
		panic(fmt.Sprintf("mem: access [%#x,%#x) outside memory (size %#x)", addr, addr+n, m.size))
	}
}

// chunkFor materializes and returns the chunk containing addr.
func (m *Memory) chunkFor(addr uint64) *[chunkBytes]byte {
	ci := addr >> chunkShift
	c := m.chunks[ci]
	if c == nil {
		c = new([chunkBytes]byte)
		m.chunks[ci] = c
	}
	return c
}

// readU64 reads 8 little-endian bytes at addr. Aligned accesses (everything
// the compiler emits) never straddle a chunk; the unaligned straddling case
// falls back to a byte loop.
func (m *Memory) readU64(addr uint64) uint64 {
	m.check(addr, 8)
	off := addr & chunkMask
	if off+8 <= chunkBytes {
		c := m.chunks[addr>>chunkShift]
		if c == nil {
			return 0
		}
		return binary.LittleEndian.Uint64(c[off:])
	}
	var b [8]byte
	for i := range b {
		a := addr + uint64(i)
		if c := m.chunks[a>>chunkShift]; c != nil {
			b[i] = c[a&chunkMask]
		}
	}
	return binary.LittleEndian.Uint64(b[:])
}

// writeU64 writes 8 little-endian bytes at addr, materializing chunks.
func (m *Memory) writeU64(addr uint64, v uint64) {
	m.check(addr, 8)
	off := addr & chunkMask
	if off+8 <= chunkBytes {
		binary.LittleEndian.PutUint64(m.chunkFor(addr)[off:], v)
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	for i := range b {
		a := addr + uint64(i)
		m.chunkFor(a)[a&chunkMask] = b[i]
	}
}

// ReadI64 reads a little-endian int64.
func (m *Memory) ReadI64(addr uint64) int64 {
	return int64(m.readU64(addr))
}

// WriteI64 writes a little-endian int64.
func (m *Memory) WriteI64(addr uint64, v int64) {
	m.writeU64(addr, uint64(v))
}

// ReadF64 reads a float64.
func (m *Memory) ReadF64(addr uint64) float64 {
	return math.Float64frombits(m.readU64(addr))
}

// WriteF64 writes a float64.
func (m *Memory) WriteF64(addr uint64, v float64) {
	m.writeU64(addr, math.Float64bits(v))
}

// HomeNode returns the NUMA home node of addr under the configured
// placement policy, assigning it on first touch where the policy is
// touch-dependent. First-touch (the default) homes the page on toucher's
// node; interleave computes page mod nodes without consulting touch
// state; bind assigns the bind node with deterministic capacity spill.
// On the SMP configuration every page homes to node 0.
func (m *Memory) HomeNode(addr uint64, toucher int) int {
	pg := addr / m.pageSize
	switch m.place.policy {
	case PlaceInterleave:
		return int(pg % uint64(m.place.numNodes))
	case PlaceBind:
		if m.home[pg] < 0 {
			m.home[pg] = m.place.assignBind()
		}
	default: // first-touch
		if m.home[pg] < 0 {
			m.home[pg] = int16(toucher)
		}
	}
	return int(m.home[pg])
}

// PeekHomeNode returns the home node without first-touch assignment
// (-1 if untouched). Interleaved pages have static homes, so the policy's
// computed value is returned rather than the untouched marker.
func (m *Memory) PeekHomeNode(addr uint64) int {
	if m.place.policy == PlaceInterleave {
		return int((addr / m.pageSize) % uint64(m.place.numNodes))
	}
	return int(m.home[addr/m.pageSize])
}

// PageSize returns the NUMA page size.
func (m *Memory) PageSize() uint64 { return m.pageSize }
