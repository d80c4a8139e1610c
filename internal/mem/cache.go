package mem

import "fmt"

// line is one cache line's bookkeeping. Data contents live in the backing
// Memory (the model is timing + coherence, not a second copy of the bytes).
type line struct {
	tag     uint64
	state   MESIState
	readyAt int64  // fill completion cycle; demand hits before this wait
	lastUse uint64 // LRU tick
}

// CacheConfig describes one cache level's geometry. Its hit latency is
// the memory system's (Config.Lat).
type CacheConfig struct {
	Name      string
	SizeBytes int
	LineBytes int
	Assoc     int
}

// Validate checks geometry invariants.
func (c CacheConfig) Validate() error {
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("mem: %s line size %d not a power of two", c.Name, c.LineBytes)
	}
	if c.Assoc <= 0 || c.Assoc > maxAssoc {
		return fmt.Errorf("mem: %s associativity %d not in 1..%d", c.Name, c.Assoc, maxAssoc)
	}
	if c.SizeBytes%(c.LineBytes*c.Assoc) != 0 {
		return fmt.Errorf("mem: %s size %d not divisible by assoc*line", c.Name, c.SizeBytes)
	}
	sets := c.SizeBytes / (c.LineBytes * c.Assoc)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("mem: %s set count %d not a power of two", c.Name, sets)
	}
	return nil
}

// blockSets is the most sets one lazily allocated block of a cache holds;
// maxAssoc is the most ways a cache may have.
const (
	blockSets = 64
	maxAssoc  = 16
)

// unfilled backs every block of every cache until the first insert into
// it. Its lines are all Invalid and nothing writes them: lookup, peek and
// invalidate find no valid line there, and insert gives the block lines of
// its own before it writes one. Sharing it keeps the set index free of a
// branch, so lookup and peek stay within the compiler's inlining budget.
var unfilled [blockSets * maxAssoc]line

// cache is a set-associative cache with LRU replacement.
//
// Its lines live in blocks of up to blockSets sets, each allocated by the
// first insert into it, so a machine pays host memory only for the sets
// its program touches: a small kernel on the 3 MB Altix L3 fills a few of
// its 32 blocks. A block never filled is a view of unfilled, so lookup,
// peek and invalidate there miss without allocating.
type cache struct {
	cfg        CacheConfig
	lineShift  uint
	setMask    uint64
	blockShift uint     // set index >> blockShift selects the block
	blockMask  uint64   // set index & blockMask selects the set in it
	blocks     [][]line // unfilled until first insert; set j is b[j*assoc : (j+1)*assoc]
	assoc      uint64
	tick       uint64
}

func newCache(cfg CacheConfig) *cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.SizeBytes / (cfg.LineBytes * cfg.Assoc)
	perBlock := min(nsets, blockSets)
	c := &cache{
		cfg:    cfg,
		assoc:  uint64(cfg.Assoc),
		blocks: make([][]line, nsets/perBlock),
	}
	lines := perBlock * cfg.Assoc
	for i := range c.blocks {
		c.blocks[i] = unfilled[:lines:lines]
	}
	for ls := cfg.LineBytes; ls > 1; ls >>= 1 {
		c.lineShift++
	}
	for n := perBlock; n > 1; n >>= 1 {
		c.blockShift++
	}
	c.setMask = uint64(nsets - 1)
	c.blockMask = uint64(perBlock - 1)
	return c
}

func (c *cache) lineAddr(addr uint64) uint64 { return addr >> c.lineShift }

// set returns the ways of lineAddr's set.
func (c *cache) set(lineAddr uint64) []line {
	i := lineAddr & c.setMask
	j := (i & c.blockMask) * c.assoc
	return c.blocks[i>>c.blockShift][j : j+c.assoc]
}

// lookup returns the line holding addr, or nil. It is every level's hit
// path, so it spells out lineAddr and set to stay inlinable.
func (c *cache) lookup(addr uint64) *line {
	la := addr >> c.lineShift
	s := la & c.setMask
	j := (s & c.blockMask) * c.assoc
	set := c.blocks[s>>c.blockShift][j : j+c.assoc]
	for i := range set {
		if l := &set[i]; l.state != Invalid && l.tag == la {
			c.tick++
			l.lastUse = c.tick
			return l
		}
	}
	return nil
}

// peek is lookup without touching LRU state (used by snoops).
func (c *cache) peek(addr uint64) *line {
	la := c.lineAddr(addr)
	set := c.set(la)
	for i := range set {
		if set[i].state != Invalid && set[i].tag == la {
			return &set[i]
		}
	}
	return nil
}

// insert installs addr with the given state, evicting the LRU victim if the
// set is full. It returns the victim (valid only if evicted=true) so the
// caller can write back Modified victims and enforce inclusion.
func (c *cache) insert(addr uint64, state MESIState, readyAt int64) (victim line, evicted bool) {
	la := c.lineAddr(addr)
	if b := &c.blocks[la&c.setMask>>c.blockShift]; &(*b)[0] == &unfilled[0] {
		*b = make([]line, len(*b))
	}
	set := c.set(la)
	c.tick++
	// Reuse an existing entry for the same tag (re-fill after downgrade).
	for i := range set {
		if set[i].state != Invalid && set[i].tag == la {
			set[i].state = state
			set[i].readyAt = readyAt
			set[i].lastUse = c.tick
			return line{}, false
		}
	}
	vi, lru := -1, ^uint64(0)
	for i := range set {
		if set[i].state == Invalid {
			vi = i
			break
		}
		if set[i].lastUse < lru {
			lru = set[i].lastUse
			vi = i
		}
	}
	v := set[vi]
	evicted = v.state != Invalid
	set[vi] = line{tag: la, state: state, readyAt: readyAt, lastUse: c.tick}
	return v, evicted
}

// invalidate drops addr and reports whether it was present and whether it
// held Modified data.
func (c *cache) invalidate(addr uint64) (found, wasM bool) {
	if l := c.peek(addr); l != nil {
		wasM = l.state == Modified
		l.state = Invalid
		return true, wasM
	}
	return false, false
}

// victimAddr reconstructs the base address of an evicted line.
func (c *cache) victimAddr(v line) uint64 { return v.tag << c.lineShift }
