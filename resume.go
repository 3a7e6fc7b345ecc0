package softwatt

// Resumable runs (DESIGN.md §13). With Options.CheckpointDir set, a run
// periodically saves a machine checkpoint and, on restart, continues from
// the last one instead of re-simulating from boot. Checkpoint files are
// keyed by the run's configuration digest — the same key the log cache
// uses — so a checkpoint never answers for a different configuration, and
// live in internal/store, so an interrupted save leaves the previous
// complete checkpoint in place. Restoration is bit-invisible:
// the continued run serialises to the same result bytes as an
// uninterrupted one (see TestCheckpointEquivalence), so resumability does
// not participate in the configuration digest.

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"softwatt/internal/ckpt"
	"softwatt/internal/core"
	"softwatt/internal/machine"
	"softwatt/internal/store"
	"softwatt/internal/trace"
)

// defaultCheckpointEvery is the default checkpoint interval in cycles:
// frequent enough that an interrupted multi-billion-cycle run loses
// minutes, rare enough that checkpoint I/O never shows in the profile.
const defaultCheckpointEvery = 500_000_000

// CheckpointFileName is the checkpoint file name a resumable run of the
// benchmark under this configuration uses within CheckpointDir. MaxCycles
// is excluded from the key (as from the machine's restore fingerprint): a
// checkpoint is valid under any cycle budget, and the budget is exactly
// what changes when an out-of-budget run is retried with a larger one.
func CheckpointFileName(benchmark string, cfg machine.Config) string {
	cfg.MaxCycles = 0
	digest := core.ConfigDigest(benchmark, cfg.Core.String(), core.ConfigEntries(cfg))
	return store.Checkpoint.Path("", benchmark, digest)
}

// resumeMachine restores the checkpoint at path into m, if one exists. A
// missing file is a normal fresh start. A checkpoint that fails to read or
// restore is corrupt under the store's policy, and the run restarts from
// boot on a rebuilt machine — a half-restored machine is never used.
func resumeMachine(m *machine.Machine, cfg machine.Config, w machine.Workload, path string) (*machine.Machine, error) {
	_, err := store.Lookup(store.Checkpoint, path, checkpointDecoder(m))
	if err == nil || errors.Is(err, fs.ErrNotExist) {
		return m, nil
	}
	m.Release()
	return machine.New(cfg, w)
}

// checkpointDecoder decodes a checkpoint file by restoring it into m. The
// key recorded inside is the machine's configuration fingerprint, which
// RestoreState checks against m's.
func checkpointDecoder(m *machine.Machine) func([]byte) (*machine.Machine, error) {
	return func(data []byte) (*machine.Machine, error) {
		payload, err := ckpt.ReadSection(data, trace.TagCkpt)
		if err != nil {
			return nil, err
		}
		return m, m.RestoreState(payload)
	}
}

// runCheckpointed drives a machine to completion in checkpoint-interval
// chunks, saving after each chunk. The cycle budget is the configured
// MaxCycles measured from boot, so a resumed run keeps the same overall
// bound as a fresh one.
func runCheckpointed(m *machine.Machine, path string, every uint64, cfg machine.Config) error {
	if every == 0 {
		every = defaultCheckpointEvery
	}
	limit := cfg.MaxCycles
	for !m.Halted() && m.Cycle() < limit {
		chunk := every
		if rem := limit - m.Cycle(); rem < chunk {
			chunk = rem
		}
		m.StepCycles(chunk)
		if m.Halted() {
			break
		}
		if err := store.Save(path, ckpt.Section{Tag: trace.TagCkpt, Payload: m.Checkpoint()}); err != nil {
			return fmt.Errorf("softwatt: writing checkpoint: %w", err)
		}
	}
	if !m.Halted() {
		return fmt.Errorf("machine: %s did not halt within %d cycles (pc=%08x)",
			m.Config().Core, limit, m.CPU().PC)
	}
	m.Disk().FinishEnergy(m.Cycle())
	os.Remove(path)
	return nil
}

// ResumableCheckpoint reports whether a resumable checkpoint exists for
// the benchmark under these options (CLI status lines).
func ResumableCheckpoint(benchmark string, opt Options) (string, bool) {
	if opt.CheckpointDir == "" {
		return "", false
	}
	cfg, err := opt.MachineConfig()
	if err != nil {
		return "", false
	}
	path := filepath.Join(opt.CheckpointDir, CheckpointFileName(benchmark, cfg))
	if _, err := os.Stat(path); err != nil {
		return "", false
	}
	return path, true
}
