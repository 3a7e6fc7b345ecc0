package machine

import (
	"bytes"
	"strings"
	"testing"

	"softwatt/internal/obs"
)

// The published code-cache counters are the functional CPU's, shared by
// every core: a run on each core must move them, and the per-core host
// caches they replaced (predecode lines, micro-TLBs) must not be
// published at all.
func TestTelemetryBlockCounters(t *testing.T) {
	obs.SetMetricsEnabled(true)
	defer obs.SetMetricsEnabled(false)
	r := obs.Default()
	hits := r.Counter("softwatt_superblock_hits_total", "", "")
	misses := r.Counter("softwatt_superblock_misses_total", "", "")
	slow := r.Counter("softwatt_slow_steps_total", "", "")

	for _, core := range []CoreKind{CoreMipsy, CoreMXS, CoreSwift} {
		h0, m0, s0 := hits.Value(), misses.Value(), slow.Value()
		m, err := New(testConfig(core), buildWorkload(t, "hello", helloSrc, nil))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(0); err != nil {
			t.Fatal(err)
		}
		bs := m.CPU().BlockStats()
		if hits.Value()-h0 != bs.Hits || misses.Value()-m0 != bs.Misses || slow.Value()-s0 != bs.SlowSteps {
			t.Errorf("%v: published hits/misses/slow %d/%d/%d, CPU counted %+v", core,
				hits.Value()-h0, misses.Value()-m0, slow.Value()-s0, bs)
		}
		if bs.Hits == 0 || bs.Misses == 0 || bs.SlowSteps == 0 {
			t.Errorf("%v: code cache counters did not move: %+v", core, bs)
		}
	}

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, dead := range []string{"softwatt_predecode_", "softwatt_microtlb_", "softwatt_swift_superblock_"} {
		if strings.Contains(buf.String(), dead) {
			t.Errorf("exposition still carries %s* metrics", dead)
		}
	}
}
