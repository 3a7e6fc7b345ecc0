package disk

// Recording and replay: how a run under one power policy answers for a
// run under another (DESIGN.md §17). The guest cannot read the disk's
// power mode. All it sees of the disk is when each request completes (the
// status register's busy bit and the completion interrupt) and whether a
// command was refused. So two runs that differ only in policy execute
// alike for as long as every request completes on the same cycle under
// both. A recording keeps what the guest issued and how the disk
// answered; Replay feeds it to a fresh disk under another policy and
// checks that every answer stays the same.
//
// The recording is not machine state: EncodeState leaves it out, so
// checkpoints and reservoirs do not change with it.

import "math"

// Command is one guest command the disk received.
type Command struct {
	Cycle uint64
	Req   Request // the request; unused for Sleep
	Sleep bool    // an explicit sleep command rather than a request
	// Refused reports that the disk turned the command down (a request
	// submitted while busy or out of range, a sleep while busy).
	Refused bool
	// Done is the cycle an accepted request completes on.
	Done uint64
}

// Recording is a disk's command stream from the call to Record on.
type Recording struct {
	Commands []Command
	// End is the cycle FinishEnergy integrated the run's energy through.
	End uint64
}

// Record starts recording every command the disk receives and returns the
// recording, which fills in as the disk runs.
func (d *Disk) Record() *Recording {
	d.rec = &Recording{}
	return d.rec
}

// Replay runs rec through a fresh disk under cfg and returns the energy
// and statistics that disk ends with at rec.End: a run under cfg would end
// with the same. ok is false when the fresh disk answers any command
// differently, a request completing on another cycle (it met a spun-down
// disk) or a command refused by one disk and accepted by the other; the
// run under cfg would then not have executed like the recorded one.
func Replay(cfg Config, rec *Recording) (energyJ float64, st Stats, ok bool) {
	return NewReplayer(cfg, rec).Finish()
}

// Replayer is Replay a cycle at a time, on a fresh disk with no image. The
// recording may grow between calls.
type Replayer struct {
	d   *Disk
	rec *Recording
	fed int  // commands fed so far
	ok  bool // all answered as recorded
}

// NewReplayer starts a replay of rec under cfg.
func NewReplayer(cfg Config, rec *Recording) *Replayer {
	return &Replayer{d: newDisk(cfg), rec: rec, ok: true}
}

// feed applies the commands issued before cycle t, up to the first the
// fresh disk answers differently.
func (r *Replayer) feed(t uint64) {
	for ; r.ok && r.fed < len(r.rec.Commands) && r.rec.Commands[r.fed].Cycle < t; r.fed++ {
		c := r.rec.Commands[r.fed]
		var done uint64
		var err error
		if c.Sleep {
			if !c.Refused {
				// The recorded disk accepted, so it had already retired
				// its request; the fresh one retires it only on Advance.
				r.d.Advance(c.Cycle)
			}
			err = r.d.Sleep(c.Cycle)
		} else {
			done, err = r.d.Submit(c.Cycle, c.Req)
		}
		r.ok = done == c.Done && (err != nil) == c.Refused
	}
}

// EnergyJ returns the disk's energy at cycle t, which must not precede an
// earlier call's; it means something only if Finish reports ok.
func (r *Replayer) EnergyJ(t uint64) float64 {
	r.feed(t)
	r.d.Advance(t)
	return r.d.EnergyJ(t)
}

// Finish feeds the rest of the recording; its results are Replay's.
func (r *Replayer) Finish() (energyJ float64, st Stats, ok bool) {
	r.feed(math.MaxUint64)
	if !r.ok {
		return 0, Stats{}, false
	}
	return r.d.FinishEnergy(r.rec.End), r.d.Stats(), true
}
