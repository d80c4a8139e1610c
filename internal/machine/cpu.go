package machine

import (
	"fmt"
	"math"

	"repro/internal/hpm"
	"repro/internal/ia64"
	"repro/internal/mem"
)

// CPU is one in-order Itanium-2-like processor. The timing model issues one
// bundle (three slots) per cycle and blocks on demand memory accesses;
// lfetch prefetches are non-blocking. FP and ALU latencies are folded into
// the issue cycle — a deliberate simplification documented in DESIGN.md:
// the paper's phenomena are memory-system effects, and uniform compute
// scaling cancels out of the normalized metrics the paper reports.
type CPU struct {
	ID       int
	RF       ia64.RegFile
	PC       int
	Cycle    int64
	Halted   bool
	ThreadID int

	PMU *hpm.PMU

	InstRetired int64

	m      *Machine
	dec    []ia64.Instr
	decGen uint64
}

func newCPU(m *Machine, id int) *CPU {
	c := &CPU{ID: id, Halted: true, m: m, PMU: hpm.NewPMU(id)}
	return c
}

// refillDecode mirrors the image into the CPU's decode cache when the
// binary has been patched or extended. The generation probe is a lock-free
// atomic load — it runs once per issue group — and resynchronization after
// a patch re-decodes only the journaled slots, not the whole image.
func (c *CPU) refillDecode() {
	if c.m.img.Generation() == c.decGen {
		return
	}
	c.dec, c.decGen = c.m.img.SyncDecode(c.dec, c.decGen)
}

// feedMemEvents translates the event deltas of one memory access into PMU
// events. Only non-zero events are offered; PMU.Add ignores zero counts, so
// skipping them is behavior-preserving and keeps the common all-zero case
// (cache hits) to one EventDelta.Any test in the caller.
func (c *CPU) feedMemEvents(ev *mem.EventDelta) {
	p := c.PMU
	if ev.L2Miss != 0 {
		p.Add(hpm.EvL2Misses, int64(ev.L2Miss))
	}
	if ev.L3Miss != 0 {
		p.Add(hpm.EvL3Misses, int64(ev.L3Miss))
	}
	if ev.Writebacks != 0 {
		p.Add(hpm.EvL3Writebacks, int64(ev.Writebacks))
	}
	if ev.BusMemory != 0 {
		p.Add(hpm.EvBusMemory, int64(ev.BusMemory))
	}
	if ev.BusRdHit != 0 {
		p.Add(hpm.EvBusRdHit, int64(ev.BusRdHit))
	}
	if ev.BusRdHitm != 0 {
		p.Add(hpm.EvBusRdHitm, int64(ev.BusRdHitm))
	}
	if ev.BusRdInvalAllHitm != 0 {
		p.Add(hpm.EvBusRdInvalAllHitm, int64(ev.BusRdInvalAllHitm))
	}
	if coh := int64(ev.BusRdHitm) + int64(ev.BusRdInvalAllHitm); coh != 0 {
		p.Add(hpm.EvBusCoherent, coh)
	}
}

// issueBundles is the front-end width: two bundles (six slots) issue per
// cycle, as on Itanium 2.
const issueBundles = 2

// stepBundle executes one issue group — up to two bundles, ending early at
// a taken branch or halt — and charges one cycle plus any memory stalls.
// It returns the number of instructions retired.
func (c *CPU) stepBundle() (int64, error) {
	if c.Halted {
		return 0, nil
	}
	c.refillDecode()
	startCycle := c.Cycle
	c.Cycle++ // issue cost of the group

	var retired int64
	bundles := 0
	for {
		if c.PC < 0 || c.PC >= len(c.dec) {
			return retired, fmt.Errorf("machine: CPU %d fetched out-of-image PC %d", c.ID, c.PC)
		}
		in := &c.dec[c.PC]
		pc := c.PC
		c.PC++
		retired++

		if err := c.exec(in, pc); err != nil {
			return retired, err
		}
		if c.Halted || c.PC != pc+1 {
			break // halted or branch redirected fetch
		}
		if c.PC%ia64.BundleSlots == 0 {
			bundles++
			if bundles >= issueBundles {
				break
			}
		}
	}

	c.InstRetired += retired
	c.PMU.Add(hpm.EvInstRetired, retired)
	c.PMU.Add(hpm.EvCPUCycles, c.Cycle-startCycle)
	return retired, nil
}

// exec applies one instruction's architectural and timing effects.
func (c *CPU) exec(in *ia64.Instr, pc int) error {
	rf := &c.RF

	// Qualifying predicate: a false predicate turns everything except the
	// loop branches (which own their QP semantics) into a no-op slot.
	if in.QP != 0 && !rf.PR(in.QP) && !(in.Op == ia64.OpBr && (in.Br == ia64.BrCtop || in.Br == ia64.BrCloop || in.Br == ia64.BrWtop)) {
		return nil
	}

	switch in.Op {
	case ia64.OpNop:

	case ia64.OpAdd:
		rf.SetGR(in.R1, rf.GR(in.R2)+rf.GR(in.R3))
	case ia64.OpSub:
		rf.SetGR(in.R1, rf.GR(in.R2)-rf.GR(in.R3))
	case ia64.OpAddI:
		rf.SetGR(in.R1, rf.GR(in.R2)+in.Imm)
	case ia64.OpAnd:
		rf.SetGR(in.R1, rf.GR(in.R2)&rf.GR(in.R3))
	case ia64.OpOr:
		rf.SetGR(in.R1, rf.GR(in.R2)|rf.GR(in.R3))
	case ia64.OpXor:
		rf.SetGR(in.R1, rf.GR(in.R2)^rf.GR(in.R3))
	case ia64.OpShlI:
		rf.SetGR(in.R1, rf.GR(in.R2)<<uint(in.Imm&63))
	case ia64.OpShrI:
		rf.SetGR(in.R1, rf.GR(in.R2)>>uint(in.Imm&63))
	case ia64.OpMovI:
		rf.SetGR(in.R1, in.Imm)
	case ia64.OpMul:
		rf.SetGR(in.R1, rf.GR(in.R2)*rf.GR(in.R3))

	case ia64.OpCmp:
		c.setCmp(in, compare(in.Rel, rf.GR(in.R2), rf.GR(in.R3)))
	case ia64.OpCmpI:
		c.setCmp(in, compare(in.Rel, rf.GR(in.R2), in.Imm))
	case ia64.OpFCmp:
		c.setCmp(in, compareF(in.Rel, rf.FR(in.R2), rf.FR(in.R3)))

	case ia64.OpLd:
		kind := mem.LoadInt
		if in.Hint == ia64.HintBias {
			kind = mem.LoadBias
		}
		addr := uint64(rf.GR(in.R2))
		c.access(addr, kind, pc)
		rf.SetGR(in.R1, c.m.memory.ReadI64(addr))
	case ia64.OpLdf:
		addr := uint64(rf.GR(in.R2))
		c.access(addr, mem.LoadFP, pc)
		rf.SetFR(in.R1, c.m.memory.ReadF64(addr))
	case ia64.OpSt:
		addr := uint64(rf.GR(in.R2))
		c.access(addr, mem.Store, pc)
		c.m.memory.WriteI64(addr, rf.GR(in.R3))
	case ia64.OpStf:
		addr := uint64(rf.GR(in.R2))
		c.access(addr, mem.Store, pc)
		c.m.memory.WriteF64(addr, rf.FR(in.R3))
	case ia64.OpLfetch:
		addr := uint64(rf.GR(in.R2))
		// lfetch is non-faulting: silently drop out-of-memory targets.
		if addr >= c.m.memory.PageSize() && addr+8 <= c.m.memory.Size() {
			kind := mem.PrefShrd
			if in.Hint == ia64.HintExcl {
				kind = mem.PrefExcl
			}
			c.access(addr, kind, pc)
		}
		c.PMU.Add(hpm.EvPrefetchesRetired, 1)

	case ia64.OpFma:
		// fma.d is genuinely fused on IA-64: one rounding.
		rf.SetFR(in.R1, math.FMA(rf.FR(in.R2), rf.FR(in.R3), rf.FR(uint8(in.Imm))))
	case ia64.OpFAdd:
		rf.SetFR(in.R1, rf.FR(in.R2)+rf.FR(in.R3))
	case ia64.OpFSub:
		rf.SetFR(in.R1, rf.FR(in.R2)-rf.FR(in.R3))
	case ia64.OpFMul:
		rf.SetFR(in.R1, rf.FR(in.R2)*rf.FR(in.R3))
	case ia64.OpFDiv:
		rf.SetFR(in.R1, rf.FR(in.R2)/rf.FR(in.R3))
	case ia64.OpFMovI:
		rf.SetFR(in.R1, math.Float64frombits(uint64(in.Imm)))
	case ia64.OpFMov:
		rf.SetFR(in.R1, rf.FR(in.R2))
	case ia64.OpFNeg:
		rf.SetFR(in.R1, -rf.FR(in.R2))
	case ia64.OpFCvt:
		rf.SetFR(in.R1, float64(rf.GR(in.R2)))
	case ia64.OpFInt:
		rf.SetGR(in.R1, int64(rf.FR(in.R2)))

	case ia64.OpBr:
		c.branch(in, pc)

	case ia64.OpMovToLC:
		rf.LC = rf.GR(in.R2)
	case ia64.OpMovToLCI:
		rf.LC = in.Imm
	case ia64.OpMovToEC:
		rf.EC = rf.GR(in.R2)
	case ia64.OpMovToECI:
		rf.EC = in.Imm
	case ia64.OpMovFromLC:
		rf.SetGR(in.R1, rf.LC)
	case ia64.OpClrrrb:
		rf.ClearRRB()

	case ia64.OpHalt:
		c.Halted = true

	default:
		return fmt.Errorf("machine: CPU %d: unimplemented opcode %v at PC %d", c.ID, in.Op, pc)
	}
	return nil
}

// access routes a memory operation through the coherence domain, advances
// the cycle clock for blocking accesses, and feeds the PMU from the event
// deltas the access itself reports (no stats snapshotting on this path).
func (c *CPU) access(addr uint64, kind mem.AccessKind, pc int) {
	var res mem.AccessResult
	c.m.dom.Access(c.ID, addr, kind, c.Cycle, &res)
	if res.Ev.Any() {
		c.feedMemEvents(&res.Ev)
	}

	switch kind {
	case mem.LoadInt, mem.LoadFP, mem.LoadBias:
		c.PMU.Add(hpm.EvLoadsRetired, 1)
		c.PMU.RecordLoad(pc, addr, res.Latency)
	case mem.Store:
		c.PMU.Add(hpm.EvStoresRetired, 1)
	}
	if !kind.IsPrefetch() && res.Done > c.Cycle {
		c.Cycle = res.Done
	}
}

func (c *CPU) setCmp(in *ia64.Instr, v bool) {
	c.RF.SetPR(in.P1, v)
	c.RF.SetPR(in.P2, !v)
}

// branch applies branch semantics and records taken branches in the BTB —
// the profile source COBRA's trace selector uses to discover loops.
func (c *CPU) branch(in *ia64.Instr, pc int) {
	rf := &c.RF
	var taken bool
	switch in.Br {
	case ia64.BrCond:
		taken = rf.PR(in.QP)
	case ia64.BrAlways:
		taken = true
	case ia64.BrCloop:
		taken = rf.ExecCloop().Taken
	case ia64.BrCtop:
		taken = rf.ExecCtop().Taken
	case ia64.BrWtop:
		taken = rf.ExecWtop(rf.PR(in.QP)).Taken
	case ia64.BrRet:
		c.Halted = true
		return
	}
	if taken {
		c.PC = int(in.Imm)
		c.PMU.RecordBranch(pc, c.PC)
		c.PMU.Add(hpm.EvTakenBranches, 1)
	}
}

func compare(rel ia64.CmpRel, a, b int64) bool {
	switch rel {
	case ia64.CmpEQ:
		return a == b
	case ia64.CmpNE:
		return a != b
	case ia64.CmpLT:
		return a < b
	case ia64.CmpLE:
		return a <= b
	case ia64.CmpGT:
		return a > b
	case ia64.CmpGE:
		return a >= b
	}
	return false
}

func compareF(rel ia64.CmpRel, a, b float64) bool {
	switch rel {
	case ia64.CmpEQ:
		return a == b
	case ia64.CmpNE:
		return a != b
	case ia64.CmpLT:
		return a < b
	case ia64.CmpLE:
		return a <= b
	case ia64.CmpGT:
		return a > b
	case ia64.CmpGE:
		return a >= b
	}
	return false
}
