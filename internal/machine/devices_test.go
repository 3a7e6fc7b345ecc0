package machine

import (
	"math"
	"strings"
	"testing"

	"softwatt/internal/disk"
	"softwatt/internal/isa"
	"softwatt/internal/kern"
	"softwatt/internal/trace"
)

// devSrc exercises the simulator MMIO surface from user mode indirectly
// (via syscalls) and directly where architecture allows.
const devSrc = `
        .org 0x00400000
_start:
        # gettime twice: the second reading must be later (BSD service)
        li   v0, 7
        syscall
        move s0, v0
        li   v0, 7
        syscall
        sltu s1, s0, v0       # 1 if time advanced
        # exit with 0 if ok, 3 otherwise
        li   a0, 3
        beqz s1, bad
        li   a0, 0
bad:
        li   v0, 1
        syscall
`

func TestGettimeAdvances(t *testing.T) {
	w := buildWorkload(t, "dev", devSrc, nil)
	m, err := New(testConfig(CoreMipsy), w)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if m.ExitCode() != 0 {
		t.Fatalf("time did not advance (exit %d)", m.ExitCode())
	}
}

func TestClockServiceTicks(t *testing.T) {
	// A long-running busy loop must accumulate clock-service invocations at
	// the configured timer period.
	src := `
        .org 0x00400000
_start:
        li   t0, 400000
loop:   addiu t0, t0, -1
        bnez t0, loop
        li   a0, 0
        li   v0, 1
        syscall
`
	w := buildWorkload(t, "tick", src, nil)
	cfg := testConfig(CoreMipsy)
	cfg.TimerCycles = 20000
	m, err := New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	ticks := m.Collector().ServiceStats(trace.SvcClock).Invocations
	want := m.Cycle() / 20000
	if ticks < want/2 || ticks > want+2 {
		t.Fatalf("clock ticks = %d over %d cycles (period 20000)", ticks, m.Cycle())
	}
}

func TestTimerDisabled(t *testing.T) {
	src := `
        .org 0x00400000
_start:
        li   t0, 100000
loop:   addiu t0, t0, -1
        bnez t0, loop
        li   a0, 0
        li   v0, 1
        syscall
`
	w := buildWorkload(t, "notick", src, nil)
	cfg := testConfig(CoreMipsy)
	cfg.TimerCycles = 0
	m, err := New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if n := m.Collector().ServiceStats(trace.SvcClock).Invocations; n != 0 {
		t.Fatalf("clock ticked %d times with the timer off", n)
	}
}

func TestMaxCyclesGuard(t *testing.T) {
	src := `
        .org 0x00400000
_start:
loop:   b loop
`
	w := buildWorkload(t, "hang", src, nil)
	cfg := testConfig(CoreMipsy)
	cfg.MaxCycles = 200_000
	m, err := New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(0); err == nil {
		t.Fatal("runaway workload did not error")
	}
	if m.Halted() {
		t.Fatal("machine claims to have halted")
	}
}

func TestWorkloadSegmentOutsideUsegRejected(t *testing.T) {
	src := `
        .org 0x80000000
_start: nop
`
	w := buildWorkload(t, "bad", src, nil)
	if _, err := New(testConfig(CoreMipsy), w); err == nil {
		t.Fatal("kernel-space workload accepted")
	}
}

func TestSampleWindowsCoverRun(t *testing.T) {
	w := buildWorkload(t, "hello", helloSrc, nil)
	cfg := testConfig(CoreMipsy)
	cfg.WindowCycles = 5000
	m, err := New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	samples := m.Collector().Finish()
	if len(samples) < 2 {
		t.Fatalf("samples = %d", len(samples))
	}
	var covered uint64
	for _, s := range samples {
		for mo := range s.Mode {
			covered += s.Mode[mo].Cycles
		}
	}
	if covered != m.Collector().TotalCycles() {
		t.Fatalf("windows cover %d of %d cycles", covered, m.Collector().TotalCycles())
	}
}

// A guest-programmed DMA buffer that does not lie wholly in RAM must fail
// like any other bad disk request — a console diagnostic and the disk IRQ
// — instead of panicking the host when completion slices RAM. The second
// address's end wraps 2³² in 32-bit arithmetic.
func TestDiskDMAOutsideRAMRejected(t *testing.T) {
	m, err := New(testConfig(CoreMipsy), buildWorkload(t, "hello", helloSrc, nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, dma := range []uint32{0x0FFF_F000, 0xFFFF_F000} {
		m.mmioWrite(kern.DiskSector, 0)
		m.mmioWrite(kern.DiskCount, 8)
		m.mmioWrite(kern.DiskDMA, dma)
		m.mmioWrite(kern.DiskCmd, kern.DiskCmdRead)
		m.dsk.Advance(math.MaxUint64) // a submitted request would complete here
		if m.cpu.IP&(1<<isa.IntDisk) == 0 {
			t.Errorf("DMA %#x: disk IRQ not raised", dma)
		}
		if !strings.Contains(m.Console(), "disk error") {
			t.Errorf("DMA %#x: no console diagnostic (console %q)", dma, m.Console())
		}
		m.mmioWrite(kern.DiskAck, 0)
		m.console.Reset()
	}
}

// A restored checkpoint can carry an in-flight request diskCommand never
// checked; completion must reject its range the same way.
func TestDiskCompleteRejectsDMAOutsideRAM(t *testing.T) {
	m, err := New(testConfig(CoreMipsy), buildWorkload(t, "hello", helloSrc, nil))
	if err != nil {
		t.Fatal(err)
	}
	m.diskComplete(disk.Request{Sector: 0, Count: 8, DMAAddr: 0x0FFF_F000})
	if m.cpu.IP&(1<<isa.IntDisk) == 0 || !strings.Contains(m.Console(), "disk error") {
		t.Fatalf("out-of-RAM completion: irq=%v console %q", m.cpu.IP&(1<<isa.IntDisk) != 0, m.Console())
	}
}
