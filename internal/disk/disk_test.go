package disk

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"
)

func cfg(p PowerPolicy, thresholdSec float64) Config {
	c := DefaultConfig()
	c.Policy = p
	c.SpindownThresholdSec = thresholdSec
	return c
}

func TestStatePowerValues(t *testing.T) {
	// Paper Figure 2 power values.
	want := map[State]float64{
		StateSleep: 0.15, StateIdle: 1.6, StateStandby: 0.35,
		StateActive: 3.2, StateSeek: 4.1, StateSpinup: 4.2,
		StateSpindown: 0, StateOff: 0,
	}
	for s, w := range want {
		if got := s.PowerW(); got != w {
			t.Errorf("%v power = %v, want %v", s, got, w)
		}
	}
}

func TestConventionalDiskAlwaysActive(t *testing.T) {
	d := New(cfg(PolicyConventional, 0), nil)
	if d.State() != StateActive {
		t.Fatalf("initial state %v", d.State())
	}
	done, err := d.Submit(0, Request{Sector: 100, Count: 8})
	if err != nil {
		t.Fatal(err)
	}
	d.Advance(done)
	if d.State() != StateActive {
		t.Fatalf("post-completion state %v", d.State())
	}
	if !d.IRQPending() {
		t.Fatal("no IRQ after completion")
	}
	// Energy over a fixed window with no further activity accrues at 3.2 W.
	e0 := d.EnergyJ(done)
	oneSec := uint64(200e6) // 1 s of cycles
	e1 := d.EnergyJ(done + oneSec)
	if diff := e1 - e0; math.Abs(diff-3.2) > 1e-9 {
		t.Fatalf("idle-window energy = %v J, want 3.2", diff)
	}
}

func TestIdlePolicyDropsToIdle(t *testing.T) {
	d := New(cfg(PolicyIdle, 0), nil)
	done, _ := d.Submit(0, Request{Sector: 0, Count: 1})
	d.Advance(done + 1)
	if d.State() != StateIdle {
		t.Fatalf("state %v, want idle", d.State())
	}
	e0 := d.EnergyJ(done)
	e1 := d.EnergyJ(done + uint64(200e6))
	if diff := e1 - e0; math.Abs(diff-1.6) > 1e-9 {
		t.Fatalf("idle-window energy = %v J, want 1.6", diff)
	}
	if d.Stats().Spindowns != 0 {
		t.Fatal("idle policy must never spin down")
	}
}

func TestStandbyPolicySpinsDownAfterThreshold(t *testing.T) {
	c := cfg(PolicyStandby, 2.0) // scaled: 2 ms
	d := New(c, nil)
	done, _ := d.Submit(0, Request{Sector: 0, Count: 1})
	thresh := uint64(2.0 / c.TimeScale * c.ClockHz)
	spin := uint64(SpinupSec / c.TimeScale * c.ClockHz)

	d.Advance(done + thresh - 1)
	if d.State() != StateIdle {
		t.Fatalf("before threshold: %v", d.State())
	}
	d.Advance(done + thresh + 1)
	if d.State() != StateSpindown {
		t.Fatalf("after threshold: %v", d.State())
	}
	d.Advance(done + thresh + spin + 1)
	if d.State() != StateStandby {
		t.Fatalf("after spindown: %v", d.State())
	}
	if d.Stats().Spindowns != 1 {
		t.Fatalf("spindowns = %d", d.Stats().Spindowns)
	}
	// Standby draws 0.35 W.
	base := done + thresh + spin + 1
	diff := d.EnergyJ(base+uint64(200e6)) - d.EnergyJ(base)
	if math.Abs(diff-0.35) > 1e-9 {
		t.Fatalf("standby energy = %v J", diff)
	}
}

func TestSpinupPenaltyOnRequestFromStandby(t *testing.T) {
	c := cfg(PolicyStandby, 2.0)
	d := New(c, nil)
	done, _ := d.Submit(0, Request{Sector: 0, Count: 1})
	thresh := uint64(2.0 / c.TimeScale * c.ClockHz)
	spin := uint64(SpinupSec / c.TimeScale * c.ClockHz)
	at := done + thresh + spin + 1000 // safely in standby
	d.Advance(at)
	if d.State() != StateStandby {
		t.Fatalf("setup: %v", d.State())
	}
	done2, err := d.Submit(at, Request{Sector: 0, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	if done2-at <= spin {
		t.Fatalf("completion %d cycles after submit; spinup alone is %d", done2-at, spin)
	}
	if d.State() != StateSpinup {
		t.Fatalf("state after submit from standby: %v", d.State())
	}
	if d.Stats().Spinups != 1 {
		t.Fatalf("spinups = %d", d.Stats().Spinups)
	}
	d.Advance(done2)
	if d.Stats().Reads != 2 {
		t.Fatalf("reads = %d", d.Stats().Reads)
	}
}

func TestRequestBeforeThresholdCancelsSpindown(t *testing.T) {
	c := cfg(PolicyStandby, 2.0)
	d := New(c, nil)
	done, _ := d.Submit(0, Request{Sector: 0, Count: 1})
	// Second request arrives well before the spindown threshold.
	at := done + 1000
	done2, _ := d.Submit(at, Request{Sector: 64, Count: 1})
	d.Advance(done2 + 1)
	if d.Stats().Spinups != 0 {
		t.Fatalf("spinups = %d, want 0", d.Stats().Spinups)
	}
	if got := d.Stats().Spindowns; got != 1 {
		// one spindown remains scheduled from the second completion
		t.Fatalf("spindowns = %d, want 1 (rescheduled)", got)
	}
	if d.State() != StateIdle {
		t.Fatalf("state %v", d.State())
	}
}

func TestRequestDuringSpindownWaitsForBothSpins(t *testing.T) {
	c := cfg(PolicyStandby, 2.0)
	d := New(c, nil)
	done, _ := d.Submit(0, Request{Sector: 0, Count: 1})
	thresh := uint64(2.0 / c.TimeScale * c.ClockHz)
	spin := uint64(SpinupSec / c.TimeScale * c.ClockHz)
	at := done + thresh + spin/2 // mid-spindown
	d.Advance(at)
	if d.State() != StateSpindown {
		t.Fatalf("setup: %v", d.State())
	}
	done2, _ := d.Submit(at, Request{Sector: 0, Count: 1})
	// Must wait for remaining half spindown plus a full spinup.
	if min := spin/2 + spin; done2-at < min {
		t.Fatalf("completion after %d, want >= %d", done2-at, min)
	}
}

func TestDiskDataRoundTrip(t *testing.T) {
	d := New(DefaultConfig(), nil)
	src := make([]byte, 3*SectorSize)
	for i := range src {
		src[i] = byte(i * 7)
	}
	d.Write(10, src)
	got := make([]byte, 3*SectorSize)
	d.Read(10, got)
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("byte %d: %x != %x", i, got[i], src[i])
		}
	}
}

func TestSubmitErrors(t *testing.T) {
	d := New(DefaultConfig(), nil)
	if _, err := d.Submit(0, Request{Sector: 0, Count: 0}); err == nil {
		t.Fatal("zero-count accepted")
	}
	huge := uint32(d.Image().Size()/SectorSize) + 1
	if _, err := d.Submit(0, Request{Sector: huge, Count: 1}); err == nil {
		t.Fatal("out-of-range accepted")
	}
	if _, err := d.Submit(0, Request{Sector: 0, Count: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Submit(1, Request{Sector: 0, Count: 1}); err == nil {
		t.Fatal("submit while busy accepted")
	}
}

func TestOnCompleteCallback(t *testing.T) {
	var got *Request
	d := New(DefaultConfig(), func(r Request) { got = &r })
	done, _ := d.Submit(0, Request{Write: true, Sector: 5, Count: 2, DMAAddr: 0x1000})
	d.Advance(done)
	if got == nil || got.Sector != 5 || !got.Write {
		t.Fatalf("callback got %+v", got)
	}
	if d.Stats().Writes != 1 || d.Stats().BytesMoved != 2*SectorSize {
		t.Fatalf("stats %+v", d.Stats())
	}
}

func TestSleepCommand(t *testing.T) {
	d := New(cfg(PolicyIdle, 0), nil)
	if err := d.Sleep(100); err != nil {
		t.Fatal(err)
	}
	if d.State() != StateSleep {
		t.Fatalf("state %v", d.State())
	}
	diff := d.EnergyJ(100+uint64(200e6)) - d.EnergyJ(100)
	if math.Abs(diff-0.15) > 1e-9 {
		t.Fatalf("sleep energy = %v", diff)
	}
}

func TestEnergyMonotonic(t *testing.T) {
	c := cfg(PolicyStandby, 2.0)
	d := New(c, nil)
	var prev float64
	var cycle uint64
	for i := 0; i < 6; i++ {
		done, err := d.Submit(cycle, Request{Sector: uint32(i * 100), Count: 4})
		if err != nil {
			t.Fatal(err)
		}
		cycle = done + uint64(i)*uint64(1.0/c.TimeScale*c.ClockHz) // growing gaps
		d.Advance(cycle)
		e := d.EnergyJ(cycle)
		if e < prev {
			t.Fatalf("energy decreased: %v < %v", e, prev)
		}
		prev = e
	}
	total := d.FinishEnergy(cycle + 1000)
	if total < prev {
		t.Fatalf("final energy %v < %v", total, prev)
	}
}

func TestStateCyclesAccounted(t *testing.T) {
	c := cfg(PolicyStandby, 2.0)
	d := New(c, nil)
	done, _ := d.Submit(0, Request{Sector: 0, Count: 1})
	endCycle := done + uint64(20.0/c.TimeScale*c.ClockHz)
	d.FinishEnergy(endCycle)
	st := d.Stats()
	var sum uint64
	for _, v := range st.StateCycles {
		sum += v
	}
	if sum != endCycle {
		t.Fatalf("state cycles sum %d != end %d", sum, endCycle)
	}
	if st.StateCycles[StateStandby] == 0 {
		t.Fatal("no standby time accounted")
	}
	if st.StateCycles[StateSeek] == 0 || st.StateCycles[StateActive] == 0 {
		t.Fatal("service phases not accounted")
	}
}

// TestSubmitOffsetOverflowRejected: Sector and Count are guest-written
// MMIO registers, so their sum (and sector*SectorSize) must be computed in
// uint64. Before the fix, a request with Sector near 2³² wrapped past the
// bounds check and panicked the host inside Read/Write.
func TestSubmitOffsetOverflowRejected(t *testing.T) {
	d := New(DefaultConfig(), nil)
	wrapping := []Request{
		{Sector: math.MaxUint32, Count: 2},     // sum wraps to 1
		{Sector: math.MaxUint32 - 1, Count: 3}, // sum wraps past 0
		{Sector: 1 << 25, Count: 1},            // sector*SectorSize wraps in 32 bits
		{Sector: math.MaxUint32, Count: math.MaxUint32},
	}
	for _, req := range wrapping {
		if _, err := d.Submit(0, req); err == nil {
			t.Errorf("wrapping request accepted: sector %d count %d", req.Sector, req.Count)
		}
	}
	// A legitimate full-range request still works.
	if _, err := d.Submit(0, Request{Sector: 0, Count: uint32(d.Image().Size() / SectorSize)}); err != nil {
		t.Fatal(err)
	}
}

// TestReadWriteOutOfRangeNoPanic: the synchronous image accessors clamp
// rather than wrap, so even a bogus sector cannot index outside the image.
func TestReadWriteOutOfRangeNoPanic(t *testing.T) {
	d := New(DefaultConfig(), nil)
	buf := make([]byte, SectorSize)
	d.Read(math.MaxUint32, buf) // wrapped to a small offset before the fix
	d.Write(math.MaxUint32, buf)
	d.Read(uint32(d.Image().Size()/SectorSize), buf)
	d.Write(uint32(d.Image().Size()/SectorSize), buf)
}

// TestImageScrubAndPoolReuse: a recycled image must read as freshly
// built. A boot-style file store is written through Image and marked, and
// sectors past it through Write; ScrubImage must zero every byte, and so
// must the pool when a released image is handed to the next disk of its
// capacity.
func TestImageScrubAndPoolReuse(t *testing.T) {
	c := DefaultConfig()
	c.CapacityBytes = 3<<20 + 5*SectorSize // pooled by no other test; short last page
	fill := func(d *Disk) {
		img := d.Image()
		n := copy(img.Bytes(), bytes.Repeat([]byte{0xA5}, 3*4096+100))
		img.MarkDirty(0, n)
		buf := bytes.Repeat([]byte{0x5A}, 4*SectorSize)
		for _, s := range []uint32{40, 1000, 4097, uint32(c.CapacityBytes/SectorSize) - 2} {
			d.Write(s, buf)
		}
	}
	allZero := func(when string, d *Disk) {
		t.Helper()
		for i, b := range d.Image().Bytes() {
			if b != 0 {
				t.Fatalf("%s: image byte %#x = %#x", when, i, b)
			}
		}
		runtime.KeepAlive(d) // the image store may be unmapped once d is unreachable
	}
	d := New(c, nil)
	fill(d)
	d.ScrubImage()
	allZero("after ScrubImage", d)

	fill(d)
	img := d.Image()
	d.Release()
	d = New(c, nil)
	if d.Image() != img {
		t.Fatal("released image not reused by the next disk of its capacity")
	}
	allZero("re-acquired from the pool", d)
}

// step is one guest command: a request (or, with sleep, a sleep command)
// issued gap cycles after the previous request completed. A busy step is
// issued one cycle after the previous request was submitted, so the disk
// refuses it.
type step struct {
	gap         uint64
	sleep, busy bool
}

// drive issues steps the way a guest does, waiting for each completion
// and polling the disk in between, and returns each command's completion
// cycle (0 when refused or a sleep) and the run's end.
func drive(d *Disk, steps []step) (dones []uint64, end uint64) {
	var t, submitted uint64
	for i, s := range steps {
		at := t + s.gap
		if s.busy {
			at = submitted + 1
		} else {
			d.Advance(at)
		}
		var done uint64
		if s.sleep {
			_ = d.Sleep(at)
		} else if c, err := d.Submit(at, Request{Sector: uint32(i * 2048), Count: 8}); err == nil {
			done, submitted, t = c, at, c
		}
		dones = append(dones, done)
	}
	return dones, t + 1000
}

// TestReplayMatchesDirectRun records a conventional disk under a command
// script and replays it under every policy. Where the policy's own run
// completes every request on the recorded cycle, the replay must accept
// and reproduce that run's energy and statistics exactly; where a request
// meets a spun-down disk, it must refuse.
func TestReplayMatchesDirectRun(t *testing.T) {
	const ms = 200_000 // one scaled second in cycles
	scripts := map[string][]step{
		"short-gaps": {{gap: 10}, {gap: ms / 2}, {busy: true}, {gap: ms}, {gap: 100}},
		"sleep":      {{gap: 10}, {gap: 50, sleep: true}, {gap: 1000}, {busy: true, sleep: true}, {gap: ms}},
		"long-gap":   {{gap: 10}, {gap: 3 * ms}, {gap: 100}},
		"very-long":  {{gap: 10}, {gap: 12 * ms}, {gap: 100}},
		// The last request spins up: no later command is refused, so only
		// its completion cycle tells the runs apart.
		"spinup-last": {{gap: 10}, {gap: 3 * ms}},
	}
	policies := map[string]Config{
		"conventional": cfg(PolicyConventional, 0),
		"idle":         cfg(PolicyIdle, 0),
		"standby2":     cfg(PolicyStandby, 2),
		"standby4":     cfg(PolicyStandby, 4),
	}
	accepted := map[string]bool{}
	for name, steps := range scripts {
		ref := New(cfg(PolicyConventional, 0), nil)
		rec := ref.Record()
		refDones, end := drive(ref, steps)
		ref.FinishEnergy(end)
		ref.Release()
		for pol, c := range policies {
			d := New(c, nil)
			dones, _ := drive(d, steps)
			wantE, wantSt := d.FinishEnergy(end), d.Stats()
			d.Release()
			same := fmt.Sprint(dones) == fmt.Sprint(refDones)
			e, st, ok := Replay(c, rec)
			if ok != same {
				t.Errorf("%s/%s: replay ok=%v, but the policy's own run completes %v against %v",
					name, pol, ok, dones, refDones)
				continue
			}
			if ok && (e != wantE || st != wantSt) {
				t.Errorf("%s/%s: replay ends with %v J %+v, the policy's own run %v J %+v",
					name, pol, e, st, wantE, wantSt)
			}
			accepted[name+"/"+pol] = ok
			// Reading the energy along the way changes nothing: a
			// replayer read every 10k cycles ends where Replay does.
			rp := NewReplayer(c, rec)
			prev := 0.0
			for at := uint64(0); at < rec.End; at += 10_000 {
				got := rp.EnergyJ(at)
				if got < prev {
					t.Fatalf("%s/%s: energy falls from %v to %v J at cycle %d", name, pol, prev, got, at)
				}
				prev = got
			}
			if ie, ist, iok := rp.Finish(); ie != e || ist != st || iok != ok {
				t.Errorf("%s/%s: read along the way, the replay ends with %v J %+v ok=%v, Replay %v J %+v ok=%v",
					name, pol, ie, ist, iok, e, st, ok)
			}
		}
	}
	// The scripts must exercise both outcomes.
	for _, k := range []string{"short-gaps/standby2", "sleep/standby4", "very-long/idle"} {
		if !accepted[k] {
			t.Errorf("%s: want the replay accepted", k)
		}
	}
	for _, k := range []string{"long-gap/standby2", "very-long/standby2", "very-long/standby4", "spinup-last/standby2"} {
		if accepted[k] {
			t.Errorf("%s: want the replay refused", k)
		}
	}
}
