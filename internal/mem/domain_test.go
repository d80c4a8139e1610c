package mem

import (
	"strings"
	"testing"
)

func smpDomain(t *testing.T, ncpu int) *Domain {
	t.Helper()
	cfg := Itanium2SMP(ncpu)
	cfg.MemBytes = 16 << 20
	m := NewMemory(cfg.MemBytes, cfg.PageSize)
	d, err := NewDomain(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func numaDomain(t *testing.T, ncpu int) *Domain {
	t.Helper()
	cfg := AltixNUMA(ncpu)
	cfg.MemBytes = 16 << 20
	m := NewMemory(cfg.MemBytes, cfg.PageSize)
	d, err := NewDomain(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

const testAddr = 0x40000

// access is Domain.Access returning its result by value.
func access(d *Domain, cpu int, addr uint64, kind AccessKind, now int64) AccessResult {
	var res AccessResult
	d.Access(cpu, addr, kind, now, &res)
	return res
}

func TestColdMissThenHit(t *testing.T) {
	d := smpDomain(t, 2)
	r1 := access(d, 0, testAddr, LoadFP, 0)
	if r1.Level != LvlMemory || !r1.BusTxn {
		t.Fatalf("cold access = %+v, want memory fill", r1)
	}
	if r1.Latency < d.cfg.Lat.Memory {
		t.Fatalf("cold latency %d < memory latency %d", r1.Latency, d.cfg.Lat.Memory)
	}
	r2 := access(d, 0, testAddr, LoadFP, r1.Done)
	if r2.Level != LvlL2 {
		t.Fatalf("second access level = %v, want L2", r2.Level)
	}
	if r2.Latency != d.cfg.Lat.L2Hit {
		t.Fatalf("L2 hit latency = %d, want %d", r2.Latency, d.cfg.Lat.L2Hit)
	}
}

func TestExclusiveOnSoleReader(t *testing.T) {
	d := smpDomain(t, 2)
	access(d, 0, testAddr, LoadFP, 0)
	if s := d.Probe(0, testAddr); s != Exclusive {
		t.Fatalf("sole reader state = %v, want E", s)
	}
}

func TestSharedOnSecondReader(t *testing.T) {
	d := smpDomain(t, 2)
	access(d, 0, testAddr, LoadFP, 0)
	r := access(d, 1, testAddr, LoadFP, 0)
	if !r.Coherent {
		t.Fatal("second reader's miss not flagged coherent")
	}
	if s0, s1 := d.Probe(0, testAddr), d.Probe(1, testAddr); s0 != Shared || s1 != Shared {
		t.Fatalf("states = %v,%v, want S,S", s0, s1)
	}
	if d.Stats(1).BusRdHit != 1 {
		t.Fatalf("BusRdHit = %d, want 1", d.Stats(1).BusRdHit)
	}
}

func TestStoreInvalidatesOtherCopies(t *testing.T) {
	d := smpDomain(t, 2)
	access(d, 0, testAddr, LoadFP, 0)
	access(d, 1, testAddr, LoadFP, 0)
	// CPU1 writes: upgrade must invalidate CPU0's copy.
	r := access(d, 1, testAddr, Store, 100)
	if !r.Coherent {
		t.Fatal("upgrade not flagged coherent")
	}
	if s := d.Probe(0, testAddr); s != Invalid {
		t.Fatalf("CPU0 state after remote store = %v, want I", s)
	}
	if s := d.Probe(1, testAddr); s != Modified {
		t.Fatalf("CPU1 state = %v, want M", s)
	}
	if d.Stats(1).BusUpgrades != 1 {
		t.Fatalf("BusUpgrades = %d, want 1", d.Stats(1).BusUpgrades)
	}
	if d.Stats(0).InvalidationsReceived != 1 {
		t.Fatalf("InvalidationsReceived = %d, want 1", d.Stats(0).InvalidationsReceived)
	}
}

func TestReadOfModifiedLineIsHITM(t *testing.T) {
	d := smpDomain(t, 2)
	access(d, 0, testAddr, Store, 0) // CPU0 owns M
	r := access(d, 1, testAddr, LoadFP, 100)
	if r.Level != LvlRemote || !r.Coherent {
		t.Fatalf("read of remote M = %+v, want cache-to-cache", r)
	}
	if d.Stats(1).BusRdHitm != 1 {
		t.Fatalf("BusRdHitm = %d, want 1", d.Stats(1).BusRdHitm)
	}
	// Coherent miss latency must exceed a plain memory load (paper §4:
	// 180-200 vs 120-150 cycles).
	if r.Latency <= d.cfg.Lat.Memory {
		t.Fatalf("HITM latency %d not above memory latency %d", r.Latency, d.cfg.Lat.Memory)
	}
	// Both copies end Shared.
	if s0, s1 := d.Probe(0, testAddr), d.Probe(1, testAddr); s0 != Shared || s1 != Shared {
		t.Fatalf("states = %v,%v, want S,S", s0, s1)
	}
}

func TestStoreToRemoteModifiedIsInvalAllHitm(t *testing.T) {
	d := smpDomain(t, 2)
	access(d, 0, testAddr, Store, 0)
	r := access(d, 1, testAddr, Store, 100)
	if !r.Coherent {
		t.Fatal("RFO of remote M not coherent")
	}
	if d.Stats(1).BusRdInvalAllHitm != 1 {
		t.Fatalf("BusRdInvalAllHitm = %d, want 1", d.Stats(1).BusRdInvalAllHitm)
	}
	if s := d.Probe(0, testAddr); s != Invalid {
		t.Fatalf("previous owner state = %v, want I", s)
	}
}

func TestSilentEToMUpgrade(t *testing.T) {
	d := smpDomain(t, 2)
	access(d, 0, testAddr, LoadFP, 0) // E
	before := d.Stats(0).BusMemory
	access(d, 0, testAddr, Store, 50)
	if d.Stats(0).BusMemory != before {
		t.Fatal("E->M upgrade generated a bus transaction")
	}
	if s := d.Probe(0, testAddr); s != Modified {
		t.Fatalf("state = %v, want M", s)
	}
}

func TestPrefetchSharedInstallsLine(t *testing.T) {
	d := smpDomain(t, 2)
	r := access(d, 0, testAddr, PrefShrd, 0)
	if r.Done != 0 {
		t.Fatalf("prefetch blocked the CPU: done = %d", r.Done)
	}
	if !r.BusTxn {
		t.Fatal("prefetch miss issued no transaction")
	}
	// Demand load immediately after: partial hit, waits for the fill.
	r2 := access(d, 0, testAddr, LoadFP, 1)
	if r2.Level != LvlL2 {
		t.Fatalf("post-prefetch level = %v, want L2", r2.Level)
	}
	if r2.Done < r.Latency {
		t.Fatalf("demand completed at %d before fill at %d", r2.Done, r.Latency)
	}
	// Demand load long after: full hit.
	r3 := access(d, 0, testAddr, LoadFP, r.Latency+100)
	if r3.Latency != d.cfg.Lat.L2Hit {
		t.Fatalf("late demand latency = %d, want %d", r3.Latency, d.cfg.Lat.L2Hit)
	}
}

func TestPrefetchExclInstallsExclusive(t *testing.T) {
	d := smpDomain(t, 2)
	access(d, 0, testAddr, PrefExcl, 0)
	if s := d.Probe(0, testAddr); s != Exclusive {
		t.Fatalf("lfetch.excl installed %v, want E (ownership)", s)
	}
	// A subsequent store is then a pure L2 hit: no upgrade transaction.
	before := d.Stats(0).BusMemory
	access(d, 0, testAddr, Store, 500)
	if d.Stats(0).BusMemory != before {
		t.Fatal("store after lfetch.excl still paid a bus transaction")
	}
}

func TestPrefetchSharedThenStorePaysUpgrade(t *testing.T) {
	// The contrast with lfetch.excl: prefetch Shared while another CPU
	// holds a copy, then store -> upgrade transaction required.
	d := smpDomain(t, 2)
	access(d, 1, testAddr, LoadFP, 0) // CPU1 holds the line
	access(d, 0, testAddr, PrefShrd, 10)
	before := d.Stats(0).BusUpgrades
	access(d, 0, testAddr, Store, 500)
	if d.Stats(0).BusUpgrades != before+1 {
		t.Fatal("store after shared prefetch did not upgrade")
	}
}

func TestPrefetchDroppedWhenMSHRsFull(t *testing.T) {
	d := smpDomain(t, 1)
	n := d.cfg.MSHRs
	for i := 0; i <= n; i++ {
		access(d, 0, testAddr+uint64(i*4096), PrefShrd, 0) // distinct sets
	}
	st := d.Stats(0)
	if st.PrefetchesDropped != 1 {
		t.Fatalf("PrefetchesDropped = %d, want 1 (MSHRs=%d)", st.PrefetchesDropped, n)
	}
	// After the fills complete, MSHRs free up.
	r := access(d, 0, testAddr+uint64((n+2)*4096), PrefShrd, 10_000)
	if r.Dropped {
		t.Fatal("prefetch dropped after MSHRs drained")
	}
}

func TestPrefetchToPresentLineIsFree(t *testing.T) {
	d := smpDomain(t, 1)
	access(d, 0, testAddr, LoadFP, 0)
	before := d.Stats(0).BusMemory
	r := access(d, 0, testAddr, PrefShrd, 100)
	if r.BusTxn || d.Stats(0).BusMemory != before {
		t.Fatal("prefetch to a resident line generated traffic")
	}
}

func TestPrefetchExclUpgradesSharedResident(t *testing.T) {
	d := smpDomain(t, 2)
	access(d, 0, testAddr, LoadFP, 0)
	access(d, 1, testAddr, LoadFP, 0) // both Shared
	access(d, 0, testAddr, PrefExcl, 100)
	if s := d.Probe(0, testAddr); s != Exclusive {
		t.Fatalf("state after lfetch.excl on S = %v, want E", s)
	}
	if s := d.Probe(1, testAddr); s != Invalid {
		t.Fatalf("remote state = %v, want I", s)
	}
}

func TestWritebackOnL3Eviction(t *testing.T) {
	d := smpDomain(t, 1)
	// Dirty one line, then sweep enough lines through the same L3 set to
	// evict it. L3: 1.5MB 12-way 128B lines -> 1024 sets; same-set stride
	// = 1024*128 = 128KB.
	access(d, 0, testAddr, Store, 0)
	const stride = 1024 * 128
	now := int64(1000)
	for i := 1; i <= 12; i++ {
		access(d, 0, testAddr+uint64(i*stride), LoadFP, now)
		now += 500
	}
	if d.Stats(0).Writebacks == 0 {
		t.Fatal("no writeback after evicting a Modified line from L3")
	}
	if s := d.Probe(0, testAddr); s != Invalid {
		t.Fatalf("evicted line still present: %v", s)
	}
}

func TestInclusionL3EvictInvalidatesL2(t *testing.T) {
	d := smpDomain(t, 1)
	access(d, 0, testAddr, LoadFP, 0)
	const stride = 1024 * 128
	now := int64(1000)
	for i := 1; i <= 12; i++ {
		access(d, 0, testAddr+uint64(i*stride), LoadFP, now)
		now += 500
	}
	// The line must be gone from L2 as well (inclusive hierarchy).
	h := d.hiers[0]
	if h.l2.peek(testAddr) != nil {
		t.Fatal("L2 retained a line evicted from L3 (inclusion violated)")
	}
}

func TestBusContentionSerializesTransactions(t *testing.T) {
	d := smpDomain(t, 4)
	// Four CPUs issue misses at the same cycle: completion times must be
	// strictly increasing by at least the occupancy window.
	var dones []int64
	for c := 0; c < 4; c++ {
		r := access(d, c, uint64(0x100000+c*0x10000), LoadFP, 0)
		dones = append(dones, r.Done)
	}
	occ := d.cfg.Lat.BusOccupancyData
	for i := 1; i < len(dones); i++ {
		if dones[i] < dones[i-1]+occ {
			t.Fatalf("transactions not serialized: %v (occupancy %d)", dones, occ)
		}
	}
}

func TestNUMARemoteCostsMoreThanLocal(t *testing.T) {
	d := numaDomain(t, 8)
	// First touch by CPU0 homes the page on node 0.
	local := access(d, 0, testAddr, Store, 0)
	// CPU6 (node 3) reads the dirty line: remote HITM.
	remote := access(d, 6, testAddr, LoadFP, 10_000)
	if remote.Latency <= local.Latency {
		t.Fatalf("remote HITM latency %d not above local fill %d", remote.Latency, local.Latency)
	}
	// And the remote HITM must exceed what the SMP charges for HITM.
	smp := smpDomain(t, 8)
	access(smp, 0, testAddr, Store, 0)
	smpRemote := access(smp, 6, testAddr, LoadFP, 10_000)
	if remote.Latency <= smpRemote.Latency {
		t.Fatalf("NUMA HITM %d not above SMP HITM %d", remote.Latency, smpRemote.Latency)
	}
}

func TestNUMAFirstTouchPlacement(t *testing.T) {
	d := numaDomain(t, 8)
	access(d, 5, testAddr, Store, 0) // CPU5 = node 2
	if n := d.Memory().PeekHomeNode(testAddr); n != 2 {
		t.Fatalf("home node = %d, want 2", n)
	}
	// Page already placed: a later toucher does not move it.
	access(d, 0, testAddr+8, LoadFP, 100)
	if n := d.Memory().PeekHomeNode(testAddr); n != 2 {
		t.Fatalf("home node moved to %d", n)
	}
}

func TestCoherentRatio(t *testing.T) {
	d := smpDomain(t, 2)
	access(d, 0, testAddr, LoadFP, 0)
	access(d, 1, testAddr, LoadFP, 0)        // coherent (BusRdHit)
	access(d, 1, testAddr+0x8000, LoadFP, 0) // not coherent
	st := d.Stats(1)
	if got := st.CoherentRatio(); got != 0.5 {
		t.Fatalf("CoherentRatio = %v, want 0.5", got)
	}
}

func TestStatsAddAndTotal(t *testing.T) {
	d := smpDomain(t, 2)
	access(d, 0, testAddr, LoadFP, 0)
	access(d, 1, testAddr+0x8000, Store, 0)
	tot := d.TotalStats()
	if tot.Loads != 1 || tot.Stores != 1 || tot.BusMemory != 2 {
		t.Fatalf("TotalStats = %+v", tot)
	}
}

func TestResetStats(t *testing.T) {
	d := smpDomain(t, 1)
	access(d, 0, testAddr, LoadFP, 0)
	d.ResetStats()
	if got := d.Stats(0); got != (CPUStats{}) {
		t.Fatalf("stats after reset: %+v", got)
	}
}

func TestLoadBiasAcquiresExclusive(t *testing.T) {
	d := smpDomain(t, 2)
	access(d, 1, testAddr, LoadFP, 0)
	access(d, 0, testAddr, LoadBias, 100)
	if s := d.Probe(0, testAddr); s != Exclusive {
		t.Fatalf("ld.bias state = %v, want E", s)
	}
	if s := d.Probe(1, testAddr); s != Invalid {
		t.Fatalf("remote state after ld.bias = %v, want I", s)
	}
}

func TestL1DServesIntegerLoads(t *testing.T) {
	d := smpDomain(t, 1)
	access(d, 0, testAddr, LoadInt, 0)
	r := access(d, 0, testAddr, LoadInt, 1000)
	if r.Level != LvlL1 || r.Latency != d.cfg.Lat.L1Hit {
		t.Fatalf("second int load = %+v, want L1 hit", r)
	}
	// FP loads bypass L1D: always at least L2 latency.
	rf := access(d, 0, testAddr, LoadFP, 2000)
	if rf.Level == LvlL1 {
		t.Fatal("FP load served by L1D")
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := Itanium2SMP(4)
	cfg.L2.LineBytes = 64 // mismatch with L3
	m := NewMemory(1<<20, cfg.PageSize)
	if _, err := NewDomain(cfg, m); err == nil {
		t.Fatal("accepted mismatched coherence line sizes")
	}
}

// TestSharerDirectoryFollowsL3Presence: the directory gains a CPU's bit
// on the L3 fill, keeps it across a downgrade, loses it to an invalidating
// snoop and to an L3 eviction, allocates mask regions only where lines
// were filled, and reads empty for a line outside simulated memory.
func TestSharerDirectoryFollowsL3Presence(t *testing.T) {
	d := smpDomain(t, 2)
	if n := len(d.dir.regions); n != 16 {
		t.Fatalf("%d mask regions for 16 MB of memory, want 16", n)
	}
	access(d, 0, testAddr, Store, 0)
	access(d, 1, testAddr, LoadFP, 1000) // HITM: cpu0 downgrades to S
	if got := d.dir.sharers(testAddr); got != 0b11 {
		t.Fatalf("after store and remote read: mask %#b, want 0b11", got)
	}
	access(d, 1, testAddr, Store, 2000) // upgrade invalidates cpu0
	if got := d.dir.sharers(testAddr); got != 0b10 {
		t.Fatalf("after remote upgrade: mask %#b, want 0b10", got)
	}
	// Twelve more lines in the same L3 set evict the line from cpu1.
	const stride = 1024 * 128
	now := int64(3000)
	for i := 1; i <= 12; i++ {
		access(d, 1, testAddr+uint64(i*stride), LoadFP, now)
		now += 500
	}
	if got := d.dir.sharers(testAddr); got != 0 {
		t.Fatalf("after L3 eviction: mask %#b, want 0", got)
	}
	for i, r := range d.dir.regions {
		if want := i == 0 || i == 1; (r != nil) != want {
			t.Errorf("region %d allocated = %v, want %v", i, r != nil, want)
		}
	}
	outside := d.mem.Size() + 4*128
	d.dir.add(outside, 1)
	if got := d.dir.sharers(outside); got != 0 {
		t.Fatalf("line outside memory: mask %#b, want 0", got)
	}
}

// TestCPUBoundOnEveryShape: every machine shape is limited to
// MaxTopologyCPUs, the width of a sharer mask.
func TestCPUBoundOnEveryShape(t *testing.T) {
	nodes := func(n int) Config {
		c := AltixNUMA(n)
		c.Nodes = []NodeConfig{{CPUs: n - 1}, {CPUs: 1}}
		return c
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"smp-64", Itanium2SMP(64), true},
		{"smp-65", Itanium2SMP(65), false},
		{"altix-64", AltixNUMA(64), true},
		{"altix-65", AltixNUMA(65), false},
		{"nodes-64", nodes(64), true},
		{"nodes-65", nodes(65), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if (err == nil) != tc.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tc.ok)
			}
			if err != nil && !strings.Contains(err.Error(), "exceeds 64") {
				t.Fatalf("error %q does not name the bound", err)
			}
		})
	}
}
