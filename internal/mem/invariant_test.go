package mem

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// The MESI protocol invariants, checked against randomly generated access
// sequences:
//
//	I1 (single writer): at most one cache holds a line Modified or
//	    Exclusive, and then no other cache holds it at all.
//	I2 (no stale owners): immediately after a store by CPU c, c holds the
//	    line Modified and every other cache holds Invalid.
//	I3 (monotone counters): every statistic is non-negative and the
//	    hit/miss taxonomy is self-consistent.
//	I4 (data integrity): the timing model never corrupts values — a value
//	    stored is the value loaded, regardless of the coherence traffic
//	    in between.

// accessOp is one randomized step.
type accessOp struct {
	CPU  uint8
	Line uint8
	Kind uint8
}

func kindOf(k uint8) AccessKind {
	switch k % 5 {
	case 0:
		return LoadInt
	case 1:
		return LoadFP
	case 2:
		return Store
	case 3:
		return PrefShrd
	default:
		return PrefExcl
	}
}

func checkStates(t *testing.T, d *Domain, ncpu int, addr uint64) bool {
	t.Helper()
	owners, holders := 0, 0
	for c := 0; c < ncpu; c++ {
		switch d.Probe(c, addr) {
		case Modified, Exclusive:
			owners++
			holders++
		case Shared:
			holders++
		}
	}
	if owners > 1 {
		t.Logf("line %#x: %d exclusive owners", addr, owners)
		return false
	}
	if owners == 1 && holders > 1 {
		t.Logf("line %#x: owner coexists with %d holders", addr, holders)
		return false
	}
	return true
}

func TestMESIInvariantsUnderRandomTraffic(t *testing.T) {
	const ncpu = 4
	const nlines = 24
	prop := func(ops []accessOp) bool {
		cfg := Itanium2SMP(ncpu)
		cfg.MemBytes = 8 << 20
		m := NewMemory(cfg.MemBytes, cfg.PageSize)
		d, err := NewDomain(cfg, m)
		if err != nil {
			t.Fatal(err)
		}
		base := m.MustAlloc("inv", nlines*128, 128)
		now := int64(0)
		for _, op := range ops {
			cpu := int(op.CPU) % ncpu
			addr := base + uint64(op.Line%nlines)*128
			kind := kindOf(op.Kind)
			res := access(d, cpu, addr, kind, now)
			if res.Done < now {
				t.Logf("time ran backwards: %d -> %d", now, res.Done)
				return false
			}
			now += 10
			// I2: a store leaves exactly one Modified copy.
			if kind == Store {
				if s := d.Probe(cpu, addr); s != Modified {
					t.Logf("store left state %v", s)
					return false
				}
				for c := 0; c < ncpu; c++ {
					if c != cpu && d.Probe(c, addr) != Invalid {
						t.Logf("store left a remote copy in %v", d.Probe(c, addr))
						return false
					}
				}
			}
			// I1 over every line.
			for l := 0; l < nlines; l++ {
				if !checkStates(t, d, ncpu, base+uint64(l)*128) {
					return false
				}
			}
		}
		// I3: counter sanity.
		for c := 0; c < ncpu; c++ {
			st := d.Stats(c)
			if st.L2Misses < 0 || st.L3Misses < 0 || st.BusMemory < 0 ||
				st.Writebacks < 0 || st.DemandLatencyTotal < 0 {
				t.Logf("negative counter: %+v", st)
				return false
			}
			if st.L3Misses > st.L2Misses {
				t.Logf("L3 misses %d exceed L2 misses %d", st.L3Misses, st.L2Misses)
				return false
			}
		}
		return true
	}
	cfgq := &quick.Config{
		MaxCount: 60,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			n := 20 + r.Intn(60)
			ops := make([]accessOp, n)
			for i := range ops {
				ops[i] = accessOp{CPU: uint8(r.Intn(255)), Line: uint8(r.Intn(255)), Kind: uint8(r.Intn(255))}
			}
			vals[0] = reflect.ValueOf(ops)
		},
	}
	if err := quick.Check(prop, cfgq); err != nil {
		t.Fatal(err)
	}
}

func TestDataIntegrityUnderCoherenceTraffic(t *testing.T) {
	// I4: values written by interleaved stores from many CPUs are read
	// back exactly, with prefetch traffic mixed in.
	const ncpu = 4
	cfg := Itanium2SMP(ncpu)
	cfg.MemBytes = 8 << 20
	m := NewMemory(cfg.MemBytes, cfg.PageSize)
	d, err := NewDomain(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	base := m.MustAlloc("data", 64*128, 128)
	r := rand.New(rand.NewSource(42))
	want := map[uint64]int64{}
	now := int64(0)
	for i := 0; i < 4000; i++ {
		cpu := r.Intn(ncpu)
		addr := base + uint64(r.Intn(64*16))*8
		switch r.Intn(4) {
		case 0:
			v := r.Int63()
			access(d, cpu, addr, Store, now)
			m.WriteI64(addr, v)
			want[addr] = v
		case 1:
			access(d, cpu, addr, LoadInt, now)
			if w, ok := want[addr]; ok && m.ReadI64(addr) != w {
				t.Fatalf("addr %#x = %d, want %d", addr, m.ReadI64(addr), w)
			}
		case 2:
			access(d, cpu, addr, PrefShrd, now)
		case 3:
			access(d, cpu, addr, PrefExcl, now)
		}
		now += 7
	}
	for addr, w := range want {
		if got := m.ReadI64(addr); got != w {
			t.Fatalf("final addr %#x = %d, want %d", addr, got, w)
		}
	}
}

func TestEvictionNeverLosesOwnership(t *testing.T) {
	// Dirty lines evicted from L3 are written back and leave no cached
	// copy; a subsequent access by another CPU must come from memory, not
	// find a stale owner.
	d := smpDomain(t, 2)
	access(d, 0, testAddr, Store, 0)
	// Force eviction by sweeping the same L3 set.
	const stride = 1024 * 128
	now := int64(1000)
	for i := 1; i <= 13; i++ {
		access(d, 0, testAddr+uint64(i*stride), LoadFP, now)
		now += 300
	}
	if s := d.Probe(0, testAddr); s != Invalid {
		t.Fatalf("evicted line still %v in owner", s)
	}
	r := access(d, 1, testAddr, LoadFP, now)
	if r.Level == LvlRemote {
		t.Fatal("read after eviction was served cache-to-cache")
	}
	if d.Stats(0).Writebacks == 0 {
		t.Fatal("dirty eviction produced no writeback")
	}
}
