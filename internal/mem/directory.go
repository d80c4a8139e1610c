package mem

// directory is the sharer directory of a Domain: for every line of
// simulated memory, a mask naming the CPUs whose L3 holds the line valid.
// L2 is inclusive in L3, so the mask names every CPU that holds the line
// at all, and a snoop visits exactly those hierarchies instead of peeking
// the tags of every other CPU.
//
// It is a host-side index, not part of the model: it decides which
// hierarchies a snoop looks at, never what the snoop finds, so snoop
// results, hop counts, timing and events are those of a broadcast. A mask
// changes only where L3 presence changes (l3Insert's fill and eviction,
// and snoop's invalidation), and the online checker compares it with a
// brute-force scan of every L3 (invariant I5 in check.go).
//
// Masks live in regions covering 1 MB of simulated memory each, allocated
// on the first fill in the region like Memory's chunks. A line beyond the
// last region maps to an empty mask and is never recorded. No line outside
// simulated memory reaches a cache from a running program: the CPU faults
// a demand access there and drops a prefetch there before either reaches
// the domain.
type directory struct {
	lineShift uint
	regions   [][]uint64 // nil until a line of the region is first filled
}

// Region granularity of the directory: 1 MB of simulated memory, 64 KB of
// masks at 128-byte lines.
const (
	regionShift = 20
	regionMask  = 1<<regionShift - 1
)

func newDirectory(memBytes uint64, lineBytes int) directory {
	dr := directory{regions: make([][]uint64, (memBytes+regionMask)>>regionShift)}
	for ls := lineBytes; ls > 1; ls >>= 1 {
		dr.lineShift++
	}
	return dr
}

// region returns the mask region of line la and la's index in it; the
// region is nil outside simulated memory or before its first fill.
func (dr *directory) region(la uint64) ([]uint64, uint64) {
	ri := la >> regionShift
	if ri >= uint64(len(dr.regions)) {
		return nil, 0
	}
	return dr.regions[ri], la & regionMask >> dr.lineShift
}

// sharers returns the mask of CPUs whose L3 holds line la valid.
func (dr *directory) sharers(la uint64) uint64 {
	if r, i := dr.region(la); r != nil {
		return r[i]
	}
	return 0
}

// add records that cpu's L3 now holds line la.
func (dr *directory) add(la uint64, cpu int) {
	ri := la >> regionShift
	if ri >= uint64(len(dr.regions)) {
		return
	}
	r := dr.regions[ri]
	if r == nil {
		r = make([]uint64, (regionMask+1)>>dr.lineShift)
		dr.regions[ri] = r
	}
	r[la&regionMask>>dr.lineShift] |= 1 << uint(cpu)
}

// drop records that the L3s of the CPUs in mask no longer hold line la.
func (dr *directory) drop(la uint64, mask uint64) {
	if r, i := dr.region(la); r != nil {
		r[i] &^= mask
	}
}
