package trace

import (
	"testing"
	"testing/quick"
)

func TestCollectorContextAttribution(t *testing.T) {
	c := NewCollector(100)
	c.SetContext(ModeUser, SvcNone)
	c.AddUnit(UnitALU, 3)
	c.AddCycles(10)
	c.AddInst(5)
	c.SetContext(ModeKernel, SvcRead)
	c.AddUnit(UnitL1D, 2)
	c.AddCycles(7)
	c.EndInvocation(SvcRead)

	tot := c.ModeTotals()
	if tot[ModeUser].Units[UnitALU] != 3 || tot[ModeUser].Cycles != 10 || tot[ModeUser].Insts != 5 {
		t.Fatalf("user bucket %+v", tot[ModeUser])
	}
	if tot[ModeKernel].Units[UnitL1D] != 2 || tot[ModeKernel].Cycles != 7 {
		t.Fatalf("kernel bucket %+v", tot[ModeKernel])
	}
	rd := c.ServiceStats(SvcRead)
	if rd.Invocations != 1 || rd.Total.Cycles != 7 || rd.Total.Units[UnitL1D] != 2 {
		t.Fatalf("read service %+v", rd)
	}
}

func TestCollectorWindowFlush(t *testing.T) {
	c := NewCollector(100)
	c.SetContext(ModeUser, SvcNone)
	for i := 0; i < 25; i++ {
		c.AddCycles(10)
	}
	samples := c.Finish()
	if len(samples) < 2 {
		t.Fatalf("samples = %d", len(samples))
	}
	// Windows must tile time without gaps.
	var last uint64
	var total uint64
	for _, s := range samples {
		if s.Start != last {
			t.Fatalf("gap: window starts at %d, previous ended %d", s.Start, last)
		}
		if s.End <= s.Start {
			t.Fatalf("empty window %+v", s)
		}
		last = s.End
		for m := range s.Mode {
			total += s.Mode[m].Cycles
		}
	}
	if total != 250 || last != 250 {
		t.Fatalf("total=%d end=%d", total, last)
	}
}

func TestCollectorEnergyFn(t *testing.T) {
	c := NewCollector(1000)
	c.SetEnergyFn(func(b *Bucket) float64 { return float64(b.Cycles) })
	c.SetContext(ModeKernel, SvcUTLB)
	for i := 0; i < 4; i++ {
		c.AddCycles(5)
		c.EndInvocation(SvcUTLB)
	}
	st := c.ServiceStats(SvcUTLB)
	if st.Invocations != 4 {
		t.Fatalf("invocations %d", st.Invocations)
	}
	if st.EnergyPerInv.Mean() != 5 {
		t.Fatalf("mean %v", st.EnergyPerInv.Mean())
	}
	if st.EnergyPerInv.CoeffDeviationPct() != 0 {
		t.Fatalf("identical invocations must have zero deviation, got %v",
			st.EnergyPerInv.CoeffDeviationPct())
	}
}

func TestModeAndSvcNames(t *testing.T) {
	if ModeUser.String() != "user" || ModeSync.String() != "sync" {
		t.Fatal("mode names wrong")
	}
	if SvcUTLB.String() != "utlb" || SvcDemandZero.String() != "demand_zero" {
		t.Fatal("svc names wrong")
	}
	if UnitL1I.String() != "il1" {
		t.Fatal("unit names wrong")
	}
}

func TestBucketAddProperty(t *testing.T) {
	f := func(aC, bC uint32, u1, u2 uint8) bool {
		var a, b Bucket
		a.Cycles = uint64(aC)
		b.Cycles = uint64(bC)
		a.Units[u1%uint8(NumUnits)] = uint64(u1)
		b.Units[u2%uint8(NumUnits)] = uint64(u2)
		sum := a
		sum.Add(&b)
		if sum.Cycles != a.Cycles+b.Cycles {
			return false
		}
		for i := range sum.Units {
			if sum.Units[i] != a.Units[i]+b.Units[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
