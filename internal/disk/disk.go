// Package disk implements the simulated disk subsystem: a seek/rotate/
// transfer timing model in the style of SimOS's HP97560 disk, layered with
// the TOSHIBA MK3003MAN operating-mode state machine and power values from
// the paper's Figure 2. Disk energy is integrated online during simulation
// (the one quantity the paper does not post-process, because mode
// transitions must be captured exactly).
//
// Because the reproduced workloads run for milliseconds rather than the
// paper's seconds, every time constant is divided by Config.TimeScale
// (default 1000). All Figure-9 phenomena depend only on the ratio between
// inter-access gaps and the spinup/threshold times, which the uniform
// scaling preserves; see DESIGN.md §2.
package disk

import (
	"fmt"
	"math"

	"softwatt/internal/mem"
)

// State is the disk operating mode (paper Figure 2).
type State uint8

// Disk operating modes.
const (
	StateOff State = iota
	StateSpinup
	StateIdle
	StateStandby
	StateActive
	StateSeek
	StateSpindown
	StateSleep
	numStates
)

// NumStates is the number of disk operating modes (telemetry iteration).
const NumStates = int(numStates)

var stateNames = [numStates]string{
	"off", "spinup", "idle", "standby", "active", "seek", "spindown", "sleep",
}

func (s State) String() string { return stateNames[s] }

// PowerW returns the paper's Figure 2 power for each mode, in watts.
// Spindown consumes no power and OFF consumes none, per the paper's stated
// assumptions.
func (s State) PowerW() float64 {
	switch s {
	case StateSleep:
		return 0.15
	case StateIdle:
		return 1.6
	case StateStandby:
		return 0.35
	case StateActive:
		return 3.2
	case StateSeek:
		return 4.1
	case StateSpinup:
		return 4.2
	}
	return 0
}

// PowerPolicy selects which low-power modes the disk uses (paper §4).
type PowerPolicy uint8

// Disk power-management configurations (paper §4).
const (
	// PolicyConventional never transitions: the disk consumes ACTIVE power
	// whenever it is not seeking. This is the paper's baseline upper bound.
	PolicyConventional PowerPolicy = iota
	// PolicyIdle transitions to IDLE immediately after a request completes
	// (configuration 2).
	PolicyIdle
	// PolicyStandby adds spindown to STANDBY after SpindownThreshold of
	// inactivity (configurations 3 and 4).
	PolicyStandby
)

func (p PowerPolicy) String() string {
	switch p {
	case PolicyConventional:
		return "conventional"
	case PolicyIdle:
		return "idle"
	case PolicyStandby:
		return "standby"
	}
	return "unknown"
}

// Config describes one disk instance.
type Config struct {
	Policy PowerPolicy
	// SpindownThresholdSec is the inactivity threshold (unscaled seconds)
	// before a PolicyStandby disk spins down. The paper studies 2 s and 4 s.
	SpindownThresholdSec float64
	// TimeScale divides the slow power-mode time constants (spinup,
	// spindown, the spindown thresholds); see the package comment.
	TimeScale float64
	// MechScale divides the fast per-request mechanics (seek, rotation,
	// transfer). It is smaller than TimeScale so that, against
	// millisecond-scale workloads, per-request latencies keep the same
	// proportion to kernel copy work that real 10 ms-class requests have
	// against the paper's seconds-scale runs, while the Figure 9 gap ∶
	// threshold ∶ spinup ratios are governed by TimeScale alone.
	MechScale float64
	// ClockHz is the CPU clock used to convert cycles to seconds.
	ClockHz float64
	// CapacityBytes is the size of the disk image.
	CapacityBytes int
}

// DefaultConfig returns a conventional-policy disk at the paper's scale
// factor.
func DefaultConfig() Config {
	return Config{
		Policy:        PolicyConventional,
		TimeScale:     1000,
		MechScale:     220,
		ClockHz:       200e6,
		CapacityBytes: 8 << 20,
	}
}

// Physical timing constants (unscaled seconds), MK3003MAN-like.
const (
	SpinupSec      = 5.0    // paper Figure 2: 5 s spinup (and equal spindown)
	seekBaseSec    = 0.004  // minimum seek
	seekFullSec    = 0.012  // additional full-stroke seek time
	halfRotSec     = 0.0071 // average rotational latency (4200 rpm)
	bytesPerSecond = 2.5e6  // media transfer rate
)

// SectorSize is the disk block size in bytes.
const SectorSize = 512

const sectorsPerCyl = 1024

// Request is one I/O operation submitted by the controller.
type Request struct {
	Write   bool
	Sector  uint32
	Count   uint32 // sectors
	DMAAddr uint32 // physical RAM address
}

// phase is a scheduled state interval ending at End.
type phase struct {
	end uint64
	st  State
	// fire indicates request completion at end of this phase.
	fire bool
}

// Stats aggregates disk activity for the experiment reports.
type Stats struct {
	Reads       uint64
	Writes      uint64
	BytesMoved  uint64
	Spinups     uint64
	Spindowns   uint64
	StateCycles [numStates]uint64
}

// Disk is the simulated drive: timing, power-mode state machine, storage.
type Disk struct {
	cfg Config
	// img is the disk image: a pooled, page-tracked store like physical
	// memory, so recycling, scrubbing and checkpointing it is RAM's code.
	img *mem.RAM

	state      State
	stateSince uint64
	energyJ    float64
	phases     []phase

	pending    *Request
	busy       bool
	irqPending bool

	lastCyl   uint32
	idleSince uint64 // when the disk last became inactive

	stats Stats

	// onComplete is invoked when a request finishes (DMA + IRQ wiring).
	onComplete func(req Request)

	// SubmitCycles records the submission time of every request
	// (diagnostics for gap analysis).
	SubmitCycles []uint64

	// rec, when non-nil, receives every command (Record).
	rec *Recording
}

// ScrubImage re-zeroes every written page of the disk image, restoring the
// all-zero state a fresh allocation guarantees. Machine reuse (Recycle +
// RestoreState) depends on it: a checkpoint only carries the pages written
// up to the checkpoint, so pages a previous occupant wrote must be zeroed
// before the restore.
func (d *Disk) ScrubImage() { d.img.Scrub() }

// New creates a disk. onComplete is called at request completion time to
// perform DMA and raise the interrupt; it may be nil for standalone tests.
func New(cfg Config, onComplete func(Request)) *Disk {
	d := newDisk(cfg)
	d.img, d.onComplete = mem.NewRAM(d.cfg.CapacityBytes), onComplete
	return d
}

// newDisk creates a disk with no image: the power-mode state machine and
// the request timing, which is all a replay uses.
func newDisk(cfg Config) *Disk {
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 1000
	}
	if cfg.MechScale <= 0 {
		cfg.MechScale = 220
	}
	if cfg.ClockHz <= 0 {
		cfg.ClockHz = 200e6
	}
	if cfg.CapacityBytes <= 0 {
		cfg.CapacityBytes = 8 << 20
	}
	d := &Disk{cfg: cfg}
	if cfg.Policy == PolicyConventional {
		d.state = StateActive
	} else {
		d.state = StateIdle
	}
	return d
}

// Config returns the disk's configuration.
func (d *Disk) Config() Config { return d.cfg }

// Image exposes the disk's backing store for pre-population by the machine
// (file-store contents). Writers through its Bytes slice must report their
// ranges via MarkDirty, so the pages are scrubbed and checkpointed.
func (d *Disk) Image() *mem.RAM { return d.img }

// State returns the current operating mode.
func (d *Disk) State() State { return d.state }

// Busy reports whether a request is in flight.
func (d *Disk) Busy() bool { return d.busy }

// IRQPending reports whether the completion interrupt is asserted.
func (d *Disk) IRQPending() bool { return d.irqPending }

// AckIRQ clears the completion interrupt.
func (d *Disk) AckIRQ() { d.irqPending = false }

// Stats returns a copy of the accumulated statistics.
func (d *Disk) Stats() Stats { return d.stats }

// secToCycles converts unscaled mode-transition seconds to (scaled) cycles.
func (d *Disk) secToCycles(s float64) uint64 {
	return uint64(s / d.cfg.TimeScale * d.cfg.ClockHz)
}

// mechToCycles converts unscaled per-request mechanical seconds to cycles.
func (d *Disk) mechToCycles(s float64) uint64 {
	return uint64(s / d.cfg.MechScale * d.cfg.ClockHz)
}

// EnergyJ returns the energy consumed up to cycle (including the partially
// elapsed current state).
func (d *Disk) EnergyJ(cycle uint64) float64 {
	return d.energyJ + d.state.PowerW()*d.cyclesToSec(cycle-d.stateSince)
}

func (d *Disk) cyclesToSec(c uint64) float64 { return float64(c) / d.cfg.ClockHz }

// setState transitions the state machine at cycle, integrating energy.
func (d *Disk) setState(st State, cycle uint64) {
	if cycle < d.stateSince {
		cycle = d.stateSince
	}
	d.energyJ += d.state.PowerW() * d.cyclesToSec(cycle-d.stateSince)
	d.stats.StateCycles[d.state] += cycle - d.stateSince
	d.state = st
	d.stateSince = cycle
}

// NextEvent returns the cycle of the next scheduled state change, or
// math.MaxUint64 when the disk is quiescent.
func (d *Disk) NextEvent() uint64 {
	if len(d.phases) == 0 {
		return math.MaxUint64
	}
	return d.phases[0].end
}

// Advance processes all state changes scheduled at or before cycle.
//
// Invariant: d.state is the operating mode during [d.stateSince,
// d.phases[0].end); each following phases[i].st is the mode during
// [phases[i-1].end, phases[i].end).
func (d *Disk) Advance(cycle uint64) {
	for len(d.phases) > 0 && d.phases[0].end <= cycle {
		ph := d.phases[0]
		d.phases = d.phases[1:]
		if ph.fire {
			d.complete(ph.end)
			continue
		}
		if len(d.phases) > 0 {
			d.setState(d.phases[0].st, ph.end)
		}
	}
}

// schedule replaces the phase queue with the given sequence starting now.
func (d *Disk) schedule(now uint64, seq []phase) {
	d.phases = seq
	if len(seq) > 0 {
		d.setState(seq[0].st, now)
	}
}

// Submit accepts a request at the given cycle. The controller must not
// submit while Busy. It returns the cycle at which the request will
// complete.
func (d *Disk) Submit(cycle uint64, req Request) (uint64, error) {
	done, err := d.submit(cycle, req)
	if d.rec != nil {
		d.rec.Commands = append(d.rec.Commands, Command{Cycle: cycle, Req: req, Refused: err != nil, Done: done})
	}
	return done, err
}

func (d *Disk) submit(cycle uint64, req Request) (uint64, error) {
	d.Advance(cycle)
	if d.busy {
		return 0, fmt.Errorf("disk: submit while busy")
	}
	// All offset arithmetic in uint64: Sector and Count are guest-written
	// uint32 MMIO registers, and their sum (or sector*SectorSize) wraps in
	// 32 bits, letting a hostile request pass a narrower check and panic
	// the host on the image slice.
	end := (uint64(req.Sector) + uint64(req.Count)) * SectorSize
	if req.Count == 0 || end > uint64(d.cfg.CapacityBytes) {
		return 0, fmt.Errorf("disk: request out of range (sector %d count %d)", req.Sector, req.Count)
	}
	d.cancelScheduledSpindown()
	d.SubmitCycles = append(d.SubmitCycles, cycle)
	d.busy = true
	r := req
	d.pending = &r

	t := cycle
	var seq []phase

	// If the disk is spun down (or on its way down), it must spin back up:
	// the energy and performance penalty the paper studies.
	switch d.state {
	case StateSpindown:
		// Finish the spindown first (it cannot be aborted), then spin up.
		rem := d.remainingPhaseEnd()
		seq = append(seq, phase{end: rem, st: StateSpindown})
		t = rem
		fallthrough
	case StateStandby, StateSleep, StateOff:
		up := t + d.secToCycles(SpinupSec)
		seq = append(seq, phase{end: up, st: StateSpinup})
		t = up
		d.stats.Spinups++
	}

	// Seek.
	cyl := req.Sector / sectorsPerCyl
	dist := int64(cyl) - int64(d.lastCyl)
	if dist < 0 {
		dist = -dist
	}
	d.lastCyl = cyl
	maxCyl := float64(d.cfg.CapacityBytes / SectorSize / sectorsPerCyl)
	if maxCyl < 1 {
		maxCyl = 1
	}
	seekSec := seekBaseSec + seekFullSec*math.Sqrt(float64(dist)/maxCyl)
	sk := t + d.mechToCycles(seekSec)
	seq = append(seq, phase{end: sk, st: StateSeek})
	t = sk

	// Rotation + transfer at ACTIVE power.
	xferSec := halfRotSec + float64(req.Count)*SectorSize/bytesPerSecond
	done := t + d.mechToCycles(xferSec)
	seq = append(seq, phase{end: done, st: StateActive, fire: true})

	d.schedule(cycle, seq)
	return done, nil
}

// remainingPhaseEnd returns the end of the current in-flight phase (used
// when a request arrives mid-spindown).
func (d *Disk) remainingPhaseEnd() uint64 {
	if len(d.phases) > 0 {
		return d.phases[0].end
	}
	return d.stateSince
}

// complete finishes the pending request at cycle.
func (d *Disk) complete(cycle uint64) {
	req := *d.pending
	d.pending = nil
	d.busy = false
	d.irqPending = true
	if req.Write {
		d.stats.Writes++
	} else {
		d.stats.Reads++
	}
	d.stats.BytesMoved += uint64(req.Count) * SectorSize
	if d.onComplete != nil {
		d.onComplete(req)
	}
	d.idleSince = cycle
	switch d.cfg.Policy {
	case PolicyConventional:
		d.schedule(cycle, nil)
		d.setState(StateActive, cycle)
	case PolicyIdle:
		d.schedule(cycle, nil)
		d.setState(StateIdle, cycle)
	case PolicyStandby:
		// IDLE now; spindown after the threshold, then STANDBY.
		down := cycle + d.secToCycles(d.cfg.SpindownThresholdSec)
		downEnd := down + d.secToCycles(SpinupSec) // spindown takes spinup time
		d.setState(StateIdle, cycle)
		d.phases = []phase{
			{end: down, st: StateIdle},
			{end: downEnd, st: StateSpindown},
			{end: math.MaxUint64, st: StateStandby},
		}
		d.stats.Spindowns++ // counted when scheduled; canceled below if preempted
	}
}

// Sleep puts the disk into its lowest-power mode via explicit command
// (paper: "The disk transitions to this state via an explicit command").
func (d *Disk) Sleep(cycle uint64) error {
	err := d.sleep(cycle)
	if d.rec != nil {
		d.rec.Commands = append(d.rec.Commands, Command{Cycle: cycle, Sleep: true, Refused: err != nil})
	}
	return err
}

func (d *Disk) sleep(cycle uint64) error {
	if d.busy {
		return fmt.Errorf("disk: sleep while busy")
	}
	d.Advance(cycle)
	d.schedule(cycle, nil)
	d.setState(StateSleep, cycle)
	return nil
}

// CancelSpindownIfScheduled is used by Submit via Advance+schedule replacing
// the queue; the spindown counter must be corrected when the spindown had
// not actually begun.
func (d *Disk) cancelScheduledSpindown() {
	// A scheduled-but-not-started spindown is the head phase being Idle
	// followed by Spindown.
	if len(d.phases) >= 2 && d.phases[0].st == StateIdle && d.phases[1].st == StateSpindown {
		if d.stats.Spindowns > 0 {
			d.stats.Spindowns--
		}
	}
}

// Read copies data from the disk image (synchronously; used by loaders and
// by the DMA engine at completion time). Out-of-range sectors copy nothing:
// the offset is computed in uint64 so a sector near 2³² cannot wrap into a
// valid-looking slice index.
func (d *Disk) Read(sector uint32, buf []byte) {
	off := uint64(sector) * SectorSize
	if img := d.img.Bytes(); off < uint64(len(img)) {
		copy(buf, img[off:])
	}
}

// Write copies data into the disk image. Out-of-range sectors are ignored.
func (d *Disk) Write(sector uint32, buf []byte) {
	off := uint64(sector) * SectorSize
	if img := d.img.Bytes(); off < uint64(len(img)) {
		d.img.MarkDirty(off, copy(img[off:], buf))
	}
}

// Release returns the image to the recycling pool. The disk (and anything
// holding its Image) must not be used afterwards.
func (d *Disk) Release() { d.img.Release() }

// FinishEnergy integrates energy through endCycle and returns the total.
// Call once at the end of simulation.
func (d *Disk) FinishEnergy(endCycle uint64) float64 {
	if d.rec != nil {
		d.rec.End = endCycle
	}
	d.Advance(endCycle)
	d.setState(d.state, endCycle)
	return d.energyJ
}
