package hpm

import (
	"testing"
	"testing/quick"
)

func TestCounterCountsOnlyItsEvent(t *testing.T) {
	p := NewPMU(0)
	p.Program(0, EvL3Misses, 0)
	p.Program(1, EvCPUCycles, 0)
	p.Add(EvL3Misses, 3)
	p.Add(EvCPUCycles, 100)
	p.Add(EvBusMemory, 5) // not programmed anywhere
	if v := p.ReadAll()[0].Value; v != 3 {
		t.Fatalf("L3 counter = %d, want 3", v)
	}
	if v := p.ReadAll()[1].Value; v != 100 {
		t.Fatalf("cycle counter = %d, want 100", v)
	}
}

func TestOverflowFiresPerPeriod(t *testing.T) {
	p := NewPMU(0)
	p.Program(2, EvCPUCycles, 100)
	fires := 0
	p.SetOverflowHandler(func(slot int, ev Event) {
		if slot != 2 || ev != EvCPUCycles {
			t.Fatalf("overflow slot=%d ev=%v", slot, ev)
		}
		fires++
	})
	p.Add(EvCPUCycles, 250) // crosses 100 and 200
	if fires != 2 {
		t.Fatalf("overflows = %d, want 2", fires)
	}
	p.Add(EvCPUCycles, 50) // reaches 300
	if fires != 3 {
		t.Fatalf("overflows = %d, want 3", fires)
	}
}

func TestOverflowPropertyCountMatchesPeriods(t *testing.T) {
	prop := func(increments []uint8, periodSeed uint8) bool {
		period := int64(periodSeed%50) + 1
		p := NewPMU(0)
		p.Program(0, EvInstRetired, period)
		fires := int64(0)
		p.SetOverflowHandler(func(int, Event) { fires++ })
		total := int64(0)
		for _, inc := range increments {
			n := int64(inc % 17)
			p.Add(EvInstRetired, n)
			total += n
		}
		return fires == total/period
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBTBKeepsLastFourOldestFirst(t *testing.T) {
	p := NewPMU(0)
	for i := 1; i <= 6; i++ {
		p.RecordBranch(i*10, i*10+1)
	}
	got := p.ReadBTB()
	if len(got) != BTBEntries {
		t.Fatalf("BTB len = %d, want %d", len(got), BTBEntries)
	}
	for i, want := range []int{30, 40, 50, 60} {
		if got[i].BranchPC != want {
			t.Fatalf("BTB[%d] = %+v, want branch %d", i, got[i], want)
		}
	}
}

func TestBTBPartialFill(t *testing.T) {
	p := NewPMU(0)
	p.RecordBranch(7, 3)
	got := p.ReadBTB()
	if len(got) != 1 || got[0] != (BranchPair{7, 3}) {
		t.Fatalf("BTB = %+v", got)
	}
}

func TestDEARLatencyFilter(t *testing.T) {
	p := NewPMU(0)
	p.SetDEARFilter(13) // drop loads served within 12 cycles (L3 hits)
	p.RecordLoad(100, 0x1000, 12)
	if p.ReadDEAR().Valid {
		t.Fatal("DEAR captured a load below the latency threshold")
	}
	p.RecordLoad(200, 0x2000, 190)
	s := p.ReadDEAR()
	if !s.Valid || s.PC != 200 || s.Addr != 0x2000 || s.Latency != 190 {
		t.Fatalf("DEAR = %+v", s)
	}
}

func TestDEARReadClearsValid(t *testing.T) {
	p := NewPMU(0)
	p.SetDEARFilter(0)
	p.RecordLoad(1, 2, 3)
	if !p.ReadDEAR().Valid {
		t.Fatal("first read invalid")
	}
	if p.ReadDEAR().Valid {
		t.Fatal("second read still valid")
	}
}

func TestDEARKeepsLatest(t *testing.T) {
	p := NewPMU(0)
	p.SetDEARFilter(0)
	p.RecordLoad(1, 0x10, 100)
	p.RecordLoad(2, 0x20, 200)
	if s := p.ReadDEAR(); s.PC != 2 {
		t.Fatalf("DEAR kept PC %d, want latest (2)", s.PC)
	}
}

func TestEventNames(t *testing.T) {
	if EvBusRdInvalAllHitm.String() != "BUS_RD_INVAL_ALL_HITM" {
		t.Fatalf("name = %q", EvBusRdInvalAllHitm.String())
	}
	if Event(200).String() != "EV_?" {
		t.Fatalf("out-of-range name = %q", Event(200).String())
	}
}
