package mem

import (
	"math/rand"
	"strings"
	"testing"
)

// TestOnlineInvariantCheckerCleanTraffic drives random coherent traffic
// with the online checker enabled: a correct protocol must produce zero
// violations, and the checker must actually have run.
func TestOnlineInvariantCheckerCleanTraffic(t *testing.T) {
	const ncpu = 4
	cfg := Itanium2SMP(ncpu)
	cfg.MemBytes = 8 << 20
	m := NewMemory(cfg.MemBytes, cfg.PageSize)
	d, err := NewDomain(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	d.EnableInvariantChecks(0)
	base := m.MustAlloc("chk", 32*128, 128)
	r := rand.New(rand.NewSource(7))
	now := int64(0)
	for i := 0; i < 5000; i++ {
		cpu := r.Intn(ncpu)
		addr := base + uint64(r.Intn(32))*128
		access(d, cpu, addr, kindOf(uint8(r.Intn(255))), now)
		now += 9
	}
	if v := d.InvariantViolations(); len(v) != 0 {
		t.Fatalf("clean traffic produced violations: %v", v)
	}
	if d.InvariantChecks() == 0 {
		t.Fatal("checker never ran")
	}
}

// TestOnlineInvariantCheckerDetectsCorruption plants an illegal MESI state
// by hand (two Modified copies of one line) and verifies the next access
// reports an I1 violation — proving the oracle can actually fail, not just
// stay silent.
func TestOnlineInvariantCheckerDetectsCorruption(t *testing.T) {
	const ncpu = 2
	cfg := Itanium2SMP(ncpu)
	cfg.MemBytes = 8 << 20
	m := NewMemory(cfg.MemBytes, cfg.PageSize)
	d, err := NewDomain(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	d.EnableInvariantChecks(4)
	base := m.MustAlloc("bad", 4*128, 128)

	// Legitimate store, then corrupt the other CPU's hierarchy behind the
	// protocol's back.
	access(d, 0, base, Store, 0)
	d.hiers[1].l2.insert(base, Modified, 0)
	d.hiers[1].l3.insert(base, Modified, 0)

	// The check runs on the accessed line, so touch the corrupted one.
	access(d, 0, base, LoadInt, 20)
	v := d.InvariantViolations()
	if len(v) == 0 {
		t.Fatal("corrupted MESI state went undetected")
	}
	found := false
	for _, s := range v {
		if strings.Contains(s, "I1:") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected an I1 violation, got: %v", v)
	}
}

// TestOnlineInvariantCheckerDetectsDirectoryCorruption breaks inclusion
// (I4) and the sharer directory (I5) behind the protocol's back, one at a
// time, and verifies that the next access to the line reports exactly the
// broken invariant. The access hits in the requester's own L2, so no
// snoop consults the corrupted directory before the check runs.
func TestOnlineInvariantCheckerDetectsDirectoryCorruption(t *testing.T) {
	for _, tc := range []struct {
		want    string
		corrupt func(d *Domain, line uint64)
	}{
		// CPU 0's L3 copy vanishes (and with it its directory bit) while
		// its L2 copy stays valid.
		{"I4:", func(d *Domain, line uint64) {
			d.hiers[0].l3.peek(line).state = Invalid
			d.dir.drop(line, 1)
		}},
		// The directory names CPU 1, whose caches never held the line.
		{"I5:", func(d *Domain, line uint64) { d.dir.add(line, 1) }},
	} {
		t.Run(strings.TrimSuffix(tc.want, ":"), func(t *testing.T) {
			cfg := Itanium2SMP(2)
			cfg.MemBytes = 8 << 20
			m := NewMemory(cfg.MemBytes, cfg.PageSize)
			d, err := NewDomain(cfg, m)
			if err != nil {
				t.Fatal(err)
			}
			d.EnableInvariantChecks(4)
			base := m.MustAlloc("bad", 4*128, 128)
			access(d, 0, base, LoadFP, 0)
			if v := d.InvariantViolations(); len(v) != 0 {
				t.Fatalf("clean fill reported %v", v)
			}
			tc.corrupt(d, base)
			access(d, 0, base, LoadFP, 200)
			v := d.InvariantViolations()
			if len(v) != 1 || !strings.HasPrefix(v[0], tc.want) {
				t.Fatalf("violations = %q, want exactly one %s violation", v, tc.want)
			}
		})
	}
}
