package ia64

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// BundleSlots is the number of instruction slots per bundle. The compiler
// pads functions so bundle boundaries fall every three slots; the machine's
// front end issues at most two bundles per cycle, as on Itanium 2.
const BundleSlots = 3

// Func describes one function (or outlined OpenMP region, or runtime-
// generated trace) in an image.
type Func struct {
	Name  string
	Entry int // first slot index
	End   int // one past the last slot index
}

// Image is a program binary: a flat array of encoded instruction words plus
// a function table. The PC of an executing thread is a slot index into the
// image. The COBRA patcher rewrites and extends the image at runtime, and
// every simulated CPU executes the image's own decoded slots (Code): there
// is one copy of the running program, as in the paper, where the optimizer
// patches the binary every thread executes.
//
// Mutations take the mutex and bump an atomic generation counter, so an
// executing CPU checks for a change once per issue group with a single
// lock-free load and re-reads the slot slice only when the image moved.
// Edits must therefore land between issue groups, as the machine's
// timers do: the mutex orders them against other readers of the image,
// not against executing CPUs.
type Image struct {
	mu    sync.RWMutex
	words []Word // 2*i and 2*i+1 hold slot i
	dec   []Instr
	funcs []Func
	gen   atomic.Uint64

	// byEntry indexes funcs sorted by ascending Entry, and maxEnd[i] is
	// the largest End among funcs[byEntry[0..i]]. Together they make
	// FuncAt a binary search plus a bounded leftward walk: with disjoint
	// functions (the normal case) the walk visits at most one candidate,
	// and the prefix-max keeps lookups correct even if overlapping ranges
	// are ever registered.
	byEntry []int
	maxEnd  []int
}

// NewImage returns an empty image.
func NewImage() *Image {
	return &Image{}
}

// Clone returns a deep copy of the image: an independent binary whose
// encoded words, decoded slots and function table share nothing with the
// original. A pristine compiled image can thus be cloned once per run and
// executed/patched concurrently without the runs observing each other —
// the basis of the workload build cache.
func (im *Image) Clone() *Image {
	im.mu.RLock()
	defer im.mu.RUnlock()
	c := &Image{
		words:   append([]Word(nil), im.words...),
		dec:     append([]Instr(nil), im.dec...),
		funcs:   append([]Func(nil), im.funcs...),
		byEntry: append([]int(nil), im.byEntry...),
		maxEnd:  append([]int(nil), im.maxEnd...),
	}
	c.gen.Store(im.gen.Load())
	return c
}

// Len returns the number of instruction slots in the image.
func (im *Image) Len() int {
	im.mu.RLock()
	defer im.mu.RUnlock()
	return len(im.dec)
}

// Generation returns the mutation generation counter. It increments on
// every Patch, Append and RemoveTail, so a slot slice read by Code at the
// current generation is exactly up to date. The load is lock-free: it sits
// on the simulator's per-issue-group hot path.
func (im *Image) Generation() uint64 {
	return im.gen.Load()
}

// Append adds encoded instructions at the end of the image and returns the
// slot index of the first one.
func (im *Image) Append(instrs ...Instr) int {
	im.mu.Lock()
	defer im.mu.Unlock()
	return im.appendLocked(instrs)
}

func (im *Image) appendLocked(instrs []Instr) int {
	start := len(im.dec)
	for _, in := range instrs {
		w0, w1 := Encode(in)
		im.words = append(im.words, w0, w1)
		im.dec = append(im.dec, in)
	}
	im.gen.Add(1) // executing CPUs must re-read Code: dec may have moved
	return start
}

// AddFunc registers a function covering [entry, end).
func (im *Image) AddFunc(name string, entry, end int) {
	im.mu.Lock()
	defer im.mu.Unlock()
	im.funcs = append(im.funcs, Func{Name: name, Entry: entry, End: end})
	im.indexFunc(len(im.funcs) - 1)
}

// indexFunc inserts funcs[fi] into the sorted-by-entry FuncAt index and
// repairs the prefix-max-End array from the insertion point on. Caller
// holds im.mu.
func (im *Image) indexFunc(fi int) {
	entry := im.funcs[fi].Entry
	pos := sort.Search(len(im.byEntry), func(i int) bool {
		return im.funcs[im.byEntry[i]].Entry > entry
	})
	im.byEntry = append(im.byEntry, 0)
	copy(im.byEntry[pos+1:], im.byEntry[pos:])
	im.byEntry[pos] = fi
	im.maxEnd = append(im.maxEnd, 0)
	for i := pos; i < len(im.byEntry); i++ {
		e := im.funcs[im.byEntry[i]].End
		if i > 0 && im.maxEnd[i-1] > e {
			e = im.maxEnd[i-1]
		}
		im.maxEnd[i] = e
	}
}

// rebuildFuncIndex recomputes the FuncAt index from scratch. Caller
// holds im.mu.
func (im *Image) rebuildFuncIndex() {
	im.byEntry = im.byEntry[:0]
	im.maxEnd = im.maxEnd[:0]
	for i := range im.funcs {
		im.byEntry = append(im.byEntry, i)
	}
	sort.SliceStable(im.byEntry, func(a, b int) bool {
		return im.funcs[im.byEntry[a]].Entry < im.funcs[im.byEntry[b]].Entry
	})
	for i, fi := range im.byEntry {
		e := im.funcs[fi].End
		if i > 0 && im.maxEnd[i-1] > e {
			e = im.maxEnd[i-1]
		}
		im.maxEnd = append(im.maxEnd, e)
	}
}

// Funcs returns a copy of the function table in entry order.
func (im *Image) Funcs() []Func {
	im.mu.RLock()
	defer im.mu.RUnlock()
	fs := make([]Func, len(im.funcs))
	copy(fs, im.funcs)
	sort.Slice(fs, func(i, j int) bool { return fs[i].Entry < fs[j].Entry })
	return fs
}

// LookupFunc returns the function named name.
func (im *Image) LookupFunc(name string) (Func, bool) {
	im.mu.RLock()
	defer im.mu.RUnlock()
	for _, f := range im.funcs {
		if f.Name == name {
			return f, true
		}
	}
	return Func{}, false
}

// FuncAt returns the function containing slot pc. The lookup binary-
// searches the sorted-by-entry index (layout-style patching registers a
// code-cache func per deployed copy, so the table grows far beyond what
// the original linear scan was sized for), then walks left only while
// the prefix-max End still covers pc — one probe when functions are
// disjoint.
func (im *Image) FuncAt(pc int) (Func, bool) {
	im.mu.RLock()
	defer im.mu.RUnlock()
	i := sort.Search(len(im.byEntry), func(i int) bool {
		return im.funcs[im.byEntry[i]].Entry > pc
	}) - 1
	for ; i >= 0 && im.maxEnd[i] > pc; i-- {
		if f := im.funcs[im.byEntry[i]]; pc >= f.Entry && pc < f.End {
			return f, true
		}
	}
	return Func{}, false
}

// Fetch returns the decoded instruction at slot pc.
func (im *Image) Fetch(pc int) Instr {
	im.mu.RLock()
	defer im.mu.RUnlock()
	return im.dec[pc]
}

// Code returns the decoded slots, indexed by PC, and the generation they
// belong to. The slice is the image's own: callers must not modify it,
// and it stays current only until the generation moves. A Patch rewrites
// a slot in place, but an Append may move the slots to a new array and a
// RemoveTail shortens them, so a holder re-reads Code whenever
// Generation differs from the generation it was given.
func (im *Image) Code() ([]Instr, uint64) {
	im.mu.RLock()
	defer im.mu.RUnlock()
	return im.dec[:len(im.dec):len(im.dec)], im.gen.Load()
}

// Words returns the raw encoded word pair of slot pc — the bytes a binary
// patcher reads before rewriting.
func (im *Image) Words(pc int) (Word, Word) {
	im.mu.RLock()
	defer im.mu.RUnlock()
	return im.words[2*pc], im.words[2*pc+1]
}

// Patch rewrites slot pc with the encoding of in. The write is validated by
// decoding the new words, the generation counter is bumped, and the previous
// instruction is returned so the caller can undo the patch.
func (im *Image) Patch(pc int, in Instr) (Instr, error) {
	w0, w1 := Encode(in)
	chk, err := Decode(w0, w1)
	if err != nil {
		return Instr{}, fmt.Errorf("ia64: refusing unencodable patch at slot %d: %w", pc, err)
	}
	im.mu.Lock()
	defer im.mu.Unlock()
	if pc < 0 || pc >= len(im.dec) {
		return Instr{}, fmt.Errorf("ia64: patch slot %d out of range [0,%d)", pc, len(im.dec))
	}
	old := im.dec[pc]
	im.words[2*pc], im.words[2*pc+1] = w0, w1
	im.dec[pc] = chk
	im.gen.Add(1)
	return old, nil
}

// RemoveTail truncates the image to n slots, dropping every function
// whose entry lies at or beyond the cut. It exists so the patcher can
// unwind a partially deployed trace — emitted copy plus function-table
// entry — when the subsequent entry-slot redirect fails; it is not a
// general editing primitive, and callers must own the entire tail they
// cut. Removal bumps the generation, so a CPU holding the longer slice
// re-reads Code before it could execute a removed slot.
func (im *Image) RemoveTail(n int) {
	im.mu.Lock()
	defer im.mu.Unlock()
	if n < 0 || n >= len(im.dec) {
		return
	}
	im.words = im.words[:2*n]
	im.dec = im.dec[:n]
	kept := im.funcs[:0]
	for _, f := range im.funcs {
		if f.Entry < n {
			kept = append(kept, f)
		}
	}
	im.funcs = kept
	im.rebuildFuncIndex()
	im.gen.Add(1)
}

// OpCount counts instructions in [lo, hi) matching keep. It backs the
// paper's Table 1 static statistics.
func (im *Image) OpCount(lo, hi int, keep func(Instr) bool) int {
	im.mu.RLock()
	defer im.mu.RUnlock()
	if hi > len(im.dec) {
		hi = len(im.dec)
	}
	n := 0
	for _, in := range im.dec[lo:hi] {
		if keep(in) {
			n++
		}
	}
	return n
}

// StaticCounts holds the per-binary static instruction statistics reported
// in Table 1 of the paper.
type StaticCounts struct {
	Lfetch  int // data prefetches
	BrCtop  int // software-pipelined counted loops
	BrCloop int // counted loops
	BrWtop  int // software-pipelined while loops
}
