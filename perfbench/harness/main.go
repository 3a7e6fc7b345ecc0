// Command harness is the softwatt benchmark. It builds the CLIs from the
// checkout, runs one workload's CLI as a child process again and again,
// one run at a time (a closed loop with one outstanding run, every worker
// count pinned to -j 1), checks every run's output against the pinned
// reference, and reports the medians. With -trace 1 it then runs the
// replay program, which runs the workload in-process under the program's
// span tracer and times what has no span from outside, and reports the
// per-layer figures instead. See perfbench/README.md.
//
// Run it through perfbench/run.sh from the root of a checkout:
//
//	bash perfbench/run.sh --workload sampled-cold --seed 1 --seconds 12 --trace 0
//
// The last line of standard output is the result object; the line before
// it is the host provenance.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

const (
	// setups is how many times set-up is repeated; setup_s is the median.
	setups = 3
	// minRuns is the fewest timed runs, however long each takes.
	minRuns = 3
)

// perLayer is every metric -trace 1 reports, with its unit; BENCHMARK.json
// lists the same.
var perLayer = []struct{ name, unit string }{
	{"traced_wall_s", "s"}, {"trace_overhead_x", "x"}, {"other_s", "s"},
	{"workload.build_s", "s"}, {"machine.new_s", "s"},
	{"mipsy.run_s", "s"}, {"mipsy.mcycles_per_s", "Mcycles/s"},
	{"mxs.run_s", "s"}, {"mxs.mcycles_per_s", "Mcycles/s"}, {"mxs1.run_s", "s"},
	{"swift.run_s", "s"}, {"swift.mcycles_per_s", "Mcycles/s"},
	{"machine.checkpoint_s", "s"}, {"machine.checkpoint_mb", "MB"},
	{"machine.restore_s", "s"}, {"machine.recycle_s", "s"},
	{"ffstore.save_s", "s"}, {"ffstore.load_s", "s"}, {"ffstore.mb", "MB"},
	{"core.collect_s", "s"}, {"core.report_s", "s"},
	{"trace.save_s", "s"}, {"trace.load_s", "s"}, {"trace.log_mb", "MB"}, {"runlog.write_s", "s"},
	{"runner.overhead_s", "s"},
	{"go.alloc_mb", "MB"}, {"go.gc_cycles", "count"},
	{"share.arch", "%"}, {"share.isa", "%"}, {"share.mem", "%"}, {"share.trace", "%"},
	{"share.machine", "%"}, {"share.disk", "%"}, {"share.cpu.mipsy", "%"}, {"share.cpu.mxs", "%"},
	{"share.cpu.swift", "%"}, {"share.ckpt", "%"}, {"share.ffstore", "%"}, {"share.core", "%"},
	{"share.power", "%"}, {"share.runtime", "%"}, {"share.other", "%"}, {"share.samples", "count"},
	{"sim.cycles", "count"}, {"sim.insts", "count"}, {"mxs.skipped_cycles", "count"},
	{"trace.log_bytes", "count"}, {"ffstore.bytes", "count"},
	{"host.nproc", "count"}, {"host.loadavg1", "procs"}, {"host.ref_loop_s", "s"}, {"host.ref_mem_s", "s"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: paper-suite, sampled-cold or sampled-warm")
	seed := flag.Int64("seed", 1, "recorded in the provenance; the workloads' inputs are fixed")
	seconds := flag.Float64("seconds", 20, "how long to keep starting timed runs")
	traced := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced replay instead of the end-to-end ones")
	pin := flag.Bool("pin", false, "rewrite the workload's pinned outputs and counts from this run")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "harness: unknown workload %q\n", *name)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	b, err := newBench(ctx, w, *pin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "harness:", err)
		os.Exit(1)
	}
	res, err := b.run(time.Duration(*seconds*float64(time.Second)), *traced == 1 || *pin)
	b.cleanup()
	if err != nil {
		fmt.Fprintln(os.Stderr, "harness:", err)
		os.Exit(1)
	}
	if *pin {
		if err := b.ref.save(b.refPath); err != nil {
			fmt.Fprintln(os.Stderr, "harness:", err)
			os.Exit(1)
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.Encode(map[string]any{"host": b.host, "seed": *seed})
	enc.Encode(res)
}

// bench is one benchmark invocation over one workload.
type bench struct {
	ctx     context.Context
	w       *workload
	root    string // checkout root (the working directory)
	work    string // this invocation's scratch directory
	bin     string // the CLIs built by the last set-up
	ref     *reference
	refPath string
	host    host

	attempted, failed int
}

func newBench(ctx context.Context, w *workload, pin bool) (*bench, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for _, p := range []string{"go.mod", "cmd/softwatt", "cmd/swreport"} {
		if _, err := os.Stat(filepath.Join(root, p)); err != nil {
			return nil, fmt.Errorf("run from the root of a softwatt checkout: %w", err)
		}
	}
	b := &bench{ctx: ctx, w: w, root: root,
		refPath: filepath.Join(root, "perfbench", "reference.json")}
	if b.ref, err = loadReference(b.refPath); err != nil {
		return nil, err
	}
	if pin {
		b.ref.pinning = true
		delete(b.ref.Outputs, w.output)
		delete(b.ref.Counts, w.name)
	}
	b.work = filepath.Join(root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *bench) cleanup() { os.RemoveAll(b.work) }

// outcome is one checked child run.
type outcome struct {
	wall, cpu, rssMB float64
	stdout           string
}

// fail records a failed operation and says why on stderr.
func (b *bench) fail(what string, err error) {
	b.failed++
	fmt.Fprintf(os.Stderr, "harness: %s %s: %v\n", b.w.name, what, err)
}

// measure runs argv to completion on one CPU, measuring its wall time,
// CPU time and peak RSS.
//
// GOMAXPROCS=1 keeps the Go runtime on the CPU the run uses: with the
// collector free to run on the second vCPU, the peak RSS of one
// sampled-warm run lands at 215 or 357 MB depending on how busy that vCPU
// is, against 373-387 MB on one CPU.
//
// Linux counts the spawning process's peak RSS into the child's maxrss
// (the child shares the harness's memory until exec), so the harness keeps
// its own footprint far below any CLI's until the timed runs are over.
func (b *bench) measure(argv []string) (outcome, error) {
	cmd := exec.CommandContext(b.ctx, argv[0], argv[1:]...)
	cmd.Dir = b.root
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	o := outcome{wall: time.Since(start).Seconds(), stdout: stdout.String()}
	if err != nil {
		return o, fmt.Errorf("%s: %w: %s", filepath.Base(argv[0]), err, lastLine(stderr.String()))
	}
	ps := cmd.ProcessState
	o.cpu = (ps.UserTime() + ps.SystemTime()).Seconds()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		o.rssMB = float64(ru.Maxrss) / 1024 // KiB on Linux
	}
	return o, nil
}

func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return lines[len(lines)-1]
}

// cliRun runs the workload's CLI once with dir as its run directory and
// checks the output and, where the workload has one, the directory's
// exact size. A failed check counts as a failed operation.
func (b *bench) cliRun(dir string) (outcome, bool) {
	b.attempted++
	o, err := b.measure(b.w.command(b.bin, dir))
	if err == nil {
		err = b.ref.checkOutput(b.w, o.stdout)
	}
	if err == nil && b.w.dirCount != "" {
		var n int64
		if n, err = dirBytes(dir); err == nil {
			err = b.ref.checkCount(b.w, b.w.dirCount, uint64(n))
		}
	}
	if err != nil {
		b.fail("run", err)
		return o, false
	}
	return o, true
}

// setup builds the CLIs into a fresh directory, so the link is paid every
// time, and for a warm workload fills the run directory with a cold run.
func (b *bench) setup(k int) (warmDir, coldOut string, err error) {
	b.bin = filepath.Join(b.work, fmt.Sprintf("bin%d", k))
	build := exec.CommandContext(b.ctx, "go", "build", "-o", b.bin+string(filepath.Separator), "./cmd/softwatt", "./cmd/swreport")
	build.Dir = b.root
	if out, err := build.CombinedOutput(); err != nil {
		return "", "", fmt.Errorf("building the CLIs: %v\n%s", err, out)
	}
	if !b.w.warm {
		return "", "", nil
	}
	warmDir = filepath.Join(b.work, fmt.Sprintf("warm%d", k))
	o, ok := b.cliRun(warmDir)
	if !ok {
		return "", "", errors.New("the cold run filling the cache failed")
	}
	return warmDir, o.stdout, nil
}

func (b *bench) run(seconds time.Duration, traced bool) (*result, error) {
	var setupS []float64
	var warmDir, coldOut string
	for k := 0; k < setups; k++ {
		prevBin := b.bin
		start := time.Now()
		dir, out, err := b.setup(k)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		if prevBin != "" {
			os.RemoveAll(prevBin)
		}
		if warmDir != "" {
			os.RemoveAll(warmDir)
		}
		warmDir, coldOut = dir, out
	}
	// Write set-up's files back now, so the first timed run does not
	// share the disk with that writeback.
	syscall.Sync()

	var wall, cpu, rss []float64
	start := time.Now()
	for i := 0; i < minRuns || time.Since(start) < seconds; i++ {
		if b.ctx.Err() != nil {
			return nil, b.ctx.Err()
		}
		dir := warmDir
		if dir == "" && b.w.dirFlag != "" {
			dir = filepath.Join(b.work, fmt.Sprintf("run%d", i))
		}
		o, ok := b.cliRun(dir)
		if ok && b.w.warm && o.stdout != coldOut {
			b.fail("run", errors.New("the warm run's output differs from the cold run's"))
			ok = false
		}
		if dir != warmDir {
			os.RemoveAll(dir)
		}
		if ok {
			wall, cpu, rss = append(wall, o.wall), append(cpu, o.cpu), append(rss, o.rssMB)
			fmt.Fprintf(os.Stderr, "harness: %s run %d: wall %.3fs cpu %.3fs rss %.1fMB\n", b.w.name, i, o.wall, o.cpu, o.rssMB)
		}
	}

	// Provenance after the timed runs: its memory reference loop would
	// otherwise raise every later child's maxrss (see measure).
	b.host = provenance(b.root)
	res := &result{Metrics: map[string]metric{}}
	if traced {
		layers, err := b.replay(mean(wall))
		if err != nil {
			b.fail("traced replay", err)
		}
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{layers[m.name], m.unit}
		}
	} else {
		res.Metrics["wall_s"] = metric{mean(wall), "s"}
		res.Metrics["cpu_s"] = metric{mean(cpu), "s"}
		res.Metrics["peak_rss_mb"] = metric{median(rss), "MB"}
		res.Metrics["setup_s"] = metric{median(setupS), "s"}
	}
	res.Attempted, res.Failed = b.attempted, b.failed
	res.Correct = b.failed == 0
	return res, nil
}

// replay runs the traced replay of the workload (after a sampled-cold
// replay filling the cache, for the warm workload), checks its exact
// counts, and returns its per-layer figures.
func (b *bench) replay(untracedWall float64) (map[string]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	prog := filepath.Join(filepath.Dir(self), "replay")
	dir := filepath.Join(b.work, "replay")
	once := func(name string) (map[string]float64, error) {
		b.attempted++
		o, err := b.measure([]string{prog, "-workload", name, "-dir", dir})
		if err != nil {
			return nil, err
		}
		var m map[string]float64
		if err := json.Unmarshal([]byte(lastLine(o.stdout)), &m); err != nil {
			return nil, fmt.Errorf("replay output: %w", err)
		}
		return m, nil
	}
	if b.w.warm {
		if _, err := once("sampled-cold"); err != nil {
			return nil, fmt.Errorf("filling the cache: %w", err)
		}
	}
	m, err := once(b.w.name)
	if err != nil {
		return nil, err
	}
	for _, c := range countNames {
		if err := b.ref.checkCount(b.w, c, uint64(m[c])); err != nil {
			return nil, err
		}
	}
	if untracedWall > 0 {
		m["trace_overhead_x"] = m["traced_wall_s"] / untracedWall
	}
	m["host.nproc"] = float64(b.host.NProc)
	m["host.loadavg1"] = b.host.LoadAvg[0]
	m["host.ref_loop_s"] = b.host.RefLoopS
	m["host.ref_mem_s"] = b.host.RefMemS
	return m, nil
}

// mean of xs; 0 when there are none. The host has slow and fast spells
// about as long as a run, and the mean over the timed runs averages them
// over the whole window (see "Why the mean" in the README).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// median of xs; 0 when there are none (every run failed, so the result
// is marked incorrect anyway).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}
