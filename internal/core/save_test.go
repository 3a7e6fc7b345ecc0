package core

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"softwatt/internal/machine"
	"softwatt/internal/trace"
)

// fullRun is synthRun plus the fields the full run log carries: config
// entries, per-invocation Welford state, disk statistics.
func fullRun(name string) *RunResult {
	r := synthRun(name)
	r.Config = ConfigEntries(machine.DefaultConfig())
	r.Committed = 1_657_000
	r.IdleCycles = r.ModeTotals[trace.ModeIdle].Cycles
	for i := 0; i < 40; i++ {
		r.Services[trace.SvcUTLB].EnergyPerInv.Add(float64(i%7) * 3e-9)
		r.Services[trace.SvcRead].EnergyPerInv.Add(float64(i%11) * 8e-8)
	}
	r.DiskStats.Reads = 12
	r.DiskStats.Writes = 3
	r.DiskStats.BytesMoved = 15 * 512
	r.DiskStats.Spinups = 2
	r.DiskStats.Spindowns = 2
	for i := range r.DiskStats.StateCycles {
		r.DiskStats.StateCycles[i] = uint64(i * 1000)
	}
	return r
}

// TestSaveLoadRoundTrip: a RunResult survives the v2 log bit-exactly, so
// any report rendered from the loaded result equals the live one.
func TestSaveLoadRoundTrip(t *testing.T) {
	r := fullRun("jess")
	var buf bytes.Buffer
	if err := SaveResult(&buf, r); err != nil {
		t.Fatal(err)
	}
	got, err := LoadResult(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, got) {
		t.Fatalf("round trip mismatch:\nwrote %+v\nread  %+v", r, got)
	}
	if got.Digest() != r.Digest() {
		t.Fatal("digest changed across round trip")
	}
	// Table 5 is the aggregate most sensitive to lost state: a merge of
	// loaded results must equal a merge of live ones.
	e := est()
	live := e.ServiceVariation([]*RunResult{r, r}, Table5Services)
	loaded := e.ServiceVariation([]*RunResult{got, got}, Table5Services)
	if !reflect.DeepEqual(live, loaded) {
		t.Fatalf("Table 5 merge diverged: %+v vs %+v", live, loaded)
	}
}

// TestConfigDigestSensitivity: the digest must move when any result-
// changing knob moves, and stay put when nothing does.
func TestConfigDigestSensitivity(t *testing.T) {
	base := machine.DefaultConfig()
	d0 := ConfigDigest("jess", "mipsy", ConfigEntries(base))
	if d0 != ConfigDigest("jess", "mipsy", ConfigEntries(machine.DefaultConfig())) {
		t.Fatal("digest not deterministic")
	}
	mut := machine.DefaultConfig()
	mut.ClockHz = 100e6
	if ConfigDigest("jess", "mipsy", ConfigEntries(mut)) == d0 {
		t.Fatal("clock change not reflected in digest")
	}
	mut = machine.DefaultConfig()
	mut.Disk.SpindownThresholdSec = 2
	if ConfigDigest("jess", "mipsy", ConfigEntries(mut)) == d0 {
		t.Fatal("disk threshold change not reflected in digest")
	}
	if ConfigDigest("db", "mipsy", ConfigEntries(base)) == d0 {
		t.Fatal("benchmark not reflected in digest")
	}
	if ConfigDigest("jess", "mxs", ConfigEntries(base)) == d0 {
		t.Fatal("core not reflected in digest")
	}
}

// TestStackNonDefaultClock is the Figure 6/8 clock regression test: a run
// configured at half the model clock has twice the seconds per cycle, so
// mode and service power must halve. The pre-fix stack converted cycles
// with the model clock and reported the 200 MHz wattage regardless of
// Options.ClockHz.
func TestStackNonDefaultClock(t *testing.T) {
	e := est()
	slow := synthRun("slow")
	slow.ClockHz = e.Model.Tech.ClockHz / 2
	fast := synthRun("fast") // model clock

	mpSlow := e.ModeAveragePower([]*RunResult{slow})
	mpFast := e.ModeAveragePower([]*RunResult{fast})
	for m := trace.Mode(0); m < trace.NumModes; m++ {
		if mpFast[m].Total == 0 {
			continue
		}
		ratio := mpSlow[m].Total / mpFast[m].Total
		if math.Abs(ratio-0.5) > 1e-9 {
			t.Errorf("mode %v: half-clock power ratio %.6f, want 0.5 (Fig 6 uses wrong clock)", m, ratio)
		}
	}

	svcs := []trace.Svc{trace.SvcUTLB, trace.SvcRead}
	spSlow := e.ServiceAveragePower([]*RunResult{slow}, svcs)
	spFast := e.ServiceAveragePower([]*RunResult{fast}, svcs)
	for i := range svcs {
		ratio := spSlow[i].Total / spFast[i].Total
		if math.Abs(ratio-0.5) > 1e-9 {
			t.Errorf("service %v: half-clock power ratio %.6f, want 0.5 (Fig 8 uses wrong clock)", svcs[i], ratio)
		}
	}
}

// TestStackMixedClockWeighting: aggregating runs with different clocks
// must weight each run's bucket by that run's seconds — total energy over
// total time — not sum cycles first.
func TestStackMixedClockWeighting(t *testing.T) {
	e := est()
	a := synthRun("a") // model clock
	b := synthRun("b")
	b.ClockHz = e.Model.Tech.ClockHz / 4

	mp := e.ModeAveragePower([]*RunResult{a, b})
	for m := trace.Mode(0); m < trace.NumModes; m++ {
		bkt := a.ModeTotals[m]
		if bkt.Cycles == 0 {
			continue
		}
		energy := 2 * e.Model.BucketEnergy(&bkt).Total // same bucket in both runs
		sec := float64(bkt.Cycles)/a.ClockHz + float64(bkt.Cycles)/b.ClockHz
		want := energy / sec
		if math.Abs(mp[m].Total-want)/want > 1e-12 {
			t.Errorf("mode %v: got %.9f W want %.9f W", m, mp[m].Total, want)
		}
	}
}
