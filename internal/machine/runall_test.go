package machine

import (
	"strings"
	"testing"

	"repro/internal/ia64"
	"repro/internal/mem"
)

// referenceRun steps active the way the causal engine is specified: one
// bundle group at a time on the runnable CPU with the smallest (cycle,
// id), after firing any timer due at that CPU's clock.
func referenceRun(t *testing.T, m *Machine, active []int) int64 {
	t.Helper()
	var retired int64
	for {
		best := -1
		for _, id := range active {
			c := m.cpus[id]
			if c.Halted {
				continue
			}
			if best == -1 || c.Cycle < m.cpus[best].Cycle || (c.Cycle == m.cpus[best].Cycle && id < best) {
				best = id
			}
		}
		if best == -1 {
			return retired
		}
		c := m.cpus[best]
		if m.timerNext != 0 && m.timerNext <= c.Cycle {
			m.fireTimers(c.Cycle)
		}
		n, err := c.stepBundle()
		if err != nil {
			t.Fatal(err)
		}
		retired += n
	}
}

// TestRunAllMatchesReferencePick: three CPUs starting at one tying clock,
// listed out of id order, share lines (two DAXPYs over overlapping y, a
// sum over y) under a recurring timer. RunAll's leader runs must reproduce
// the one-group-per-pick reference exactly: every timer firing sees the
// same clocks and PCs, and the run ends in the same architectural,
// timing and memory-system state.
func TestRunAllMatchesReferencePick(t *testing.T) {
	type snap struct {
		now    int64
		cycles [3]int64
		pcs    [3]int
	}
	run := func(reference bool) (*Machine, []snap, int64) {
		img := ia64.NewImage()
		daxpy := asmDaxpyCtop(img)
		sum := asmSumLoop(img)
		m := testMachine(t, img, 3)
		const n = 300
		x := m.Memory().MustAlloc("x", 8*n, 128)
		y := m.Memory().MustAlloc("y", 8*(n+40), 128)
		for i := 0; i < n; i++ {
			m.Memory().WriteF64(x+uint64(8*i), float64(i))
			m.Memory().WriteI64(y+uint64(8*i), int64(i))
		}
		for cpu, off := range []uint64{0, 8 * 37} {
			m.StartThread(cpu, daxpy, cpu+1, func(rf *ia64.RegFile) {
				rf.SetGR(8, int64(x))
				rf.SetGR(9, int64(y+off))
				rf.SetGR(10, n)
				rf.SetGR(12, int64(y+off))
				rf.SetFR(6, 0.5)
			})
		}
		m.StartThread(2, sum, 3, func(rf *ia64.RegFile) {
			rf.SetGR(8, int64(y))
			rf.SetGR(10, n-1)
		})
		var log []snap
		m.AddTimer(&Timer{NextAt: 97, Fn: func(now int64) int64 {
			s := snap{now: now}
			for i := range s.cycles {
				s.cycles[i], s.pcs[i] = m.cpus[i].Cycle, m.cpus[i].PC
			}
			log = append(log, s)
			return now + 97
		}})
		active := []int{2, 0, 1}
		if reference {
			return m, log, referenceRun(t, m, active)
		}
		retired, err := m.RunAll(active)
		if err != nil {
			t.Fatal(err)
		}
		return m, log, retired
	}
	got, gotLog, gotRetired := run(false)
	want, wantLog, wantRetired := run(true)
	if gotRetired != wantRetired {
		t.Fatalf("retired %d, reference %d", gotRetired, wantRetired)
	}
	if len(gotLog) < 10 || len(gotLog) != len(wantLog) {
		t.Fatalf("%d timer firings, reference %d", len(gotLog), len(wantLog))
	}
	for i := range gotLog {
		if gotLog[i] != wantLog[i] {
			t.Fatalf("timer firing %d saw %+v, reference %+v", i, gotLog[i], wantLog[i])
		}
	}
	for id := 0; id < 3; id++ {
		g, w := got.cpus[id], want.cpus[id]
		if g.Cycle != w.Cycle || g.InstRetired != w.InstRetired || g.PC != w.PC || g.RF != w.RF {
			t.Fatalf("cpu%d ends at cycle %d, %d retired, pc %d; reference %d, %d, %d (or registers differ)",
				id, g.Cycle, g.InstRetired, g.PC, w.Cycle, w.InstRetired, w.PC)
		}
		if gs, ws := got.dom.Stats(id), want.dom.Stats(id); gs != ws {
			t.Fatalf("cpu%d memory stats %+v, reference %+v", id, gs, ws)
		}
	}
}

// TestRunAllTieBreaksByCPUID: with clocks tied and the active list out of
// id order, the CPU with the lowest id among the earliest clocks steps
// first — also when the leader catches up with a lower-id CPU mid-run,
// where it must yield instead of stepping on. The first access to a page
// homes it on the toucher's node, one CPU per node, so the page's home
// names the CPU that touched it first.
func TestRunAllTieBreaksByCPUID(t *testing.T) {
	for _, tc := range []struct {
		name   string
		clocks [3]int64
		detour int // CPU that spends one group on a branch before touching (-1: none)
		first  int
	}{
		{"all-tied", [3]int64{0, 0, 0}, -1, 0},
		{"cpu1-cpu2-tied", [3]int64{5, 3, 3}, -1, 1},
		{"cpu0-cpu2-tied", [3]int64{3, 5, 3}, -1, 0},
		{"cpu1-catches-up-with-cpu0", [3]int64{5, 4, 9}, 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			img := ia64.NewImage()
			a := ia64.NewAsm(img, "touch")
			a.Br(ia64.BrAlways, 0, "touch")
			a.Nop()
			a.Label("touch")
			touch := a.Emit(ia64.Instr{Op: ia64.OpLd, R1: 10, R2: 8})
			a.Emit(ia64.Instr{Op: ia64.OpHalt})
			detour, err := a.Close()
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig(3)
			cfg.Mem = mem.AltixNUMA(3)
			cfg.Mem.CPUsPerNode = 1
			cfg.Mem.MemBytes = 8 << 20
			m, err := New(cfg, img)
			if err != nil {
				t.Fatal(err)
			}
			addr := m.Memory().MustAlloc("page", 128, 128)
			for id := 0; id < 3; id++ {
				entry := detour + touch
				if id == tc.detour {
					entry = detour
				}
				m.StartThread(id, entry, id+1, func(rf *ia64.RegFile) { rf.SetGR(8, int64(addr)) })
				m.CPU(id).Cycle = tc.clocks[id]
			}
			if _, err := m.RunAll([]int{2, 0, 1}); err != nil {
				t.Fatal(err)
			}
			if home := m.Memory().PeekHomeNode(addr); home != tc.first {
				t.Fatalf("page homed on node %d: CPU %d touched it first, want CPU %d", home, home, tc.first)
			}
		})
	}
}

// TestRunAllClockBound: a clock the leader key cannot hold is an error
// naming the CPU, not a silent wrap of the causal order; the largest
// packable clock still runs.
func TestRunAllClockBound(t *testing.T) {
	for _, tc := range []struct {
		name  string
		clock int64
		ok    bool
	}{
		{"max", maxClock, true},
		{"max+1", maxClock + 1, false},
		{"negative", -1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			img := ia64.NewImage()
			entry, err := img.Append(ia64.Instr{Op: ia64.OpHalt})
			if err != nil {
				t.Fatal(err)
			}
			m := testMachine(t, img, 2)
			m.StartThread(0, entry, 1, nil)
			m.StartThread(1, entry, 2, nil)
			m.CPU(1).Cycle = tc.clock
			_, err = m.RunAll([]int{0, 1})
			if tc.ok {
				if err != nil || !m.CPU(1).Halted {
					t.Fatalf("RunAll = %v, halted %v; want a clean run", err, m.CPU(1).Halted)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), "CPU 1 clock") {
				t.Fatalf("RunAll = %v, want an error naming CPU 1's clock", err)
			}
		})
	}
}

// BenchmarkRunAll times the causal engine on 8 CPUs running an ALU-only
// counted loop from one tying clock: every group takes one cycle, so each
// leader runs for a single group before a CPU with its old clock takes
// over — the most picks per group the engine can face.
func BenchmarkRunAll(b *testing.B) {
	img := ia64.NewImage()
	a := ia64.NewAsm(img, "spin")
	a.Emit(ia64.Instr{Op: ia64.OpMovToLC, R2: 10})
	a.Label("top")
	a.Emit(ia64.Instr{Op: ia64.OpAddI, R1: 9, R2: 9, Imm: 1})
	a.Br(ia64.BrCloop, 0, "top")
	a.Emit(ia64.Instr{Op: ia64.OpHalt})
	entry, err := a.Close()
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(8)
	cfg.Mem.MemBytes = 1 << 20
	m, err := New(cfg, img)
	if err != nil {
		b.Fatal(err)
	}
	active := []int{0, 1, 2, 3, 4, 5, 6, 7}
	const iters = 1000
	setLC := func(rf *ia64.RegFile) { rf.SetGR(10, iters-1) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, id := range active {
			m.StartThread(id, entry, id+1, setLC)
		}
		if _, err := m.RunAll(active); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(active)*iters), "ns/group")
}
