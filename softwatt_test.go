package softwatt

import (
	"testing"

	"softwatt/internal/trace"
)

func TestOptionsValidation(t *testing.T) {
	if _, err := Run("jess", Options{Core: "bogus"}); err == nil {
		t.Fatal("bad core accepted")
	}
	if _, err := Run("jess", Options{DiskPolicy: "bogus"}); err == nil {
		t.Fatal("bad disk policy accepted")
	}
	if _, err := Run("nosuch", Options{}); err == nil {
		t.Fatal("bad benchmark accepted")
	}
}

func TestValidationAnchor(t *testing.T) {
	got := ValidateMaxPower()
	if got < 25.0 || got > 25.6 {
		t.Fatalf("max CPU power %.2f W, want ~25.3 W (paper validation)", got)
	}
}

func TestRunProducesCompleteResult(t *testing.T) {
	r, err := Run("compress", Options{Core: "mipsy"})
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalCycles == 0 || r.Committed == 0 || len(r.Samples) == 0 {
		t.Fatalf("incomplete result: %+v", r)
	}
	if r.DiskEnergyJ <= 0 {
		t.Fatal("no disk energy")
	}
	if r.Services[SvcUTLB].Invocations == 0 {
		t.Fatal("no utlb activity recorded")
	}
	// Per-invocation energy was measured online.
	if r.Services[SvcUTLB].EnergyPerInv.N() == 0 {
		t.Fatal("per-invocation energy not wired")
	}
}

// TestPaperShapeClaims checks the paper's central qualitative results on a
// single MXS run set (jess, the paper's example benchmark, plus compress).
func TestPaperShapeClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("full MXS runs in -short mode")
	}
	est := NewEstimator()
	var runs []*RunResult
	for _, bench := range []string{"compress", "jess"} {
		r, err := Run(bench, Options{Core: "mxs"})
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, r)
	}

	// §3.2: the user mode has the highest average power of the four modes.
	mp := est.ModeAveragePower(runs)
	for m := Mode(0); m < NumModes; m++ {
		if m != ModeUser && m != ModeSync && mp[m].Total > mp[ModeUser].Total {
			t.Errorf("mode %v power %.2f exceeds user %.2f", m, mp[m].Total, mp[ModeUser].Total)
		}
	}

	// Table 2: user energy share exceeds its cycle share (strict on the
	// compute-bound compress; within a small tolerance on the TLB-stressed
	// jess, whose scaled-down footprint traps far more often per
	// instruction than the paper's seconds-long runs — see EXPERIMENTS.md);
	// idle's energy share does not exceed its cycle share materially.
	for _, r := range runs {
		ms := est.ModeBreakdown(r)
		slack := 0.0
		if r.Benchmark != "compress" {
			slack = 1.5
		}
		if ms.EnergyPct[ModeUser]+slack <= ms.CyclesPct[ModeUser] {
			t.Errorf("%s: user energy %.1f well below cycles %.1f", r.Benchmark,
				ms.EnergyPct[ModeUser], ms.CyclesPct[ModeUser])
		}
		if ms.EnergyPct[ModeIdle] >= ms.CyclesPct[ModeIdle]+2.5 {
			t.Errorf("%s: idle energy %.1f far above cycles %.1f", r.Benchmark,
				ms.EnergyPct[ModeIdle], ms.CyclesPct[ModeIdle])
		}
	}

	// Table 3: the user fetch rate approaches the paper's ~2/cycle on the
	// compute-bound benchmark and the kernel never fetches much faster
	// than user code (our synthetic kernel read path is an optimized block
	// copy, slightly hotter than IRIX's branchy VFS paths).
	for _, r := range runs {
		cr := est.CacheRefsPerCycle(r)
		if cr.IL1[ModeUser] < 1.2 {
			t.Errorf("%s: user iL1/cyc %.2f too low", r.Benchmark, cr.IL1[ModeUser])
		}
		if cr.IL1[ModeKernel] > cr.IL1[ModeUser]+0.6 {
			t.Errorf("%s: kernel iL1/cyc %.2f far above user %.2f", r.Benchmark,
				cr.IL1[ModeKernel], cr.IL1[ModeUser])
		}
	}

	// Fig 8: utlb has lower average power than read and demand_zero.
	sv := est.ServiceAveragePower(runs, []Svc{SvcUTLB, SvcRead, SvcDemandZero})
	if sv[0].Total >= sv[1].Total || sv[0].Total >= sv[2].Total {
		t.Errorf("utlb power %.2f not below read %.2f / demand_zero %.2f",
			sv[0].Total, sv[1].Total, sv[2].Total)
	}

	// Table 4: utlb's energy share is proportionately smaller than its
	// cycle share (jess).
	for _, row := range est.ServiceTable(runs[1]) {
		if row.Service == SvcUTLB && row.EnergyPct >= row.CyclesPct {
			t.Errorf("utlb energy share %.1f >= cycle share %.1f", row.EnergyPct, row.CyclesPct)
		}
	}

	// Table 5: internal services vary less per invocation than I/O calls.
	rows := est.ServiceVariation(runs, []Svc{SvcUTLB, SvcRead})
	if len(rows) == 2 && rows[0].CoeffDevPct >= rows[1].CoeffDevPct {
		t.Errorf("utlb cod %.2f%% >= read cod %.2f%%", rows[0].CoeffDevPct, rows[1].CoeffDevPct)
	}

	// Fig 5 direction: the disk is the single largest component with the
	// conventional configuration.
	bud := est.PowerBudget(runs)
	for _, comp := range []string{"datapath", "clock", "memory", "il1"} {
		if bud.Pct(comp) > bud.Pct("disk")+8 {
			t.Errorf("component %s (%.1f%%) dwarfs the disk (%.1f%%)",
				comp, bud.Pct(comp), bud.Pct("disk"))
		}
	}
}

func TestSweepShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	rows, err := sweep([]string{"jess", "mtrt"}, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	get := func(b, p string) Fig9Row {
		for _, r := range rows {
			if r.Benchmark == b && r.Policy == p {
				return r
			}
		}
		t.Fatalf("missing %s/%s", b, p)
		return Fig9Row{}
	}
	// IDLE policy always saves energy with zero performance cost.
	for _, b := range []string{"jess", "mtrt"} {
		conv, idle := get(b, "conventional"), get(b, "idle")
		if idle.DiskJ >= conv.DiskJ {
			t.Errorf("%s: idle policy %.3f >= conventional %.3f", b, idle.DiskJ, conv.DiskJ)
		}
		if idle.Cycles != conv.Cycles {
			t.Errorf("%s: idle policy changed performance", b)
		}
	}
	// jess is unaffected by the 2 s threshold (short gaps).
	if j2, ji := get("jess", "standby2"), get("jess", "idle"); j2.Spinups != 0 || j2.DiskJ != ji.DiskJ {
		t.Errorf("jess standby2 not idle-equivalent: %+v", j2)
	}
	// mtrt: both thresholds spin down, idle cycles match, and the 4 s
	// threshold consumes MORE energy (the paper's anomaly).
	m2, m4 := get("mtrt", "standby2"), get("mtrt", "standby4")
	if m2.Spinups == 0 || m2.Spinups != m4.Spinups {
		t.Errorf("mtrt spinups: %d vs %d", m2.Spinups, m4.Spinups)
	}
	if m2.IdleCycles != m4.IdleCycles {
		t.Errorf("mtrt idle cycles differ: %d vs %d", m2.IdleCycles, m4.IdleCycles)
	}
	if m4.DiskJ <= m2.DiskJ {
		t.Errorf("mtrt: standby4 energy %.4f <= standby2 %.4f (anomaly lost)", m4.DiskJ, m2.DiskJ)
	}
}

func TestModeConstantsMatchTrace(t *testing.T) {
	if ModeUser != trace.ModeUser || NumModes != trace.NumModes {
		t.Fatal("mode alias mismatch")
	}
	if SvcUTLB != trace.SvcUTLB {
		t.Fatal("svc alias mismatch")
	}
}
