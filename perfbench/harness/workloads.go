package main

import "path/filepath"

// benchmarks are the six workloads in softwatt.Benchmarks order
// (TestBenchmarkOrder).
var benchmarks = []string{"compress", "jess", "db", "javac", "mtrt", "jack"}

// workload is one benchmark workload: a fixed CLI invocation. Its inputs
// do not depend on the seed: the simulator and its suites are
// deterministic, and even the order of the benchmarks is an input in its
// own right (two orders of sampled-cold's six peak at 192 and 250 MB).
type workload struct {
	name string
	// output names the pinned digest the CLI's stdout must match;
	// sampled-warm shares sampled-cold's, since both print the same.
	output string
	// dirFlag is the CLI flag naming a per-run directory ("" for none).
	dirFlag string
	// dirCount is the exact count the directory's total size must equal
	// after a run.
	dirCount string
	// warm marks a workload whose set-up fills dirFlag's directory with a
	// cold run that every timed run then reuses.
	warm bool
	// args is the CLI and its arguments, without the run directory.
	args []string
}

var sampledArgs = append([]string{"softwatt", "-sample", "10", "-window", "200000", "-core", "mipsy", "-j", "1"}, benchmarks...)

var workloads = map[string]*workload{
	"paper-suite": {
		name: "paper-suite", output: "paper-suite",
		dirFlag: "-logs", dirCount: "trace.log_bytes",
		args: []string{"swreport", "-exp", "all", "-j", "1"},
	},
	"sampled-cold": {
		name: "sampled-cold", output: "sampled",
		dirFlag: "-ffcache", dirCount: "ffstore.bytes", args: sampledArgs,
	},
	"sampled-warm": {
		name: "sampled-warm", output: "sampled",
		dirFlag: "-ffcache", dirCount: "ffstore.bytes", warm: true, args: sampledArgs,
	},
}

// command is the CLI argv for one run: the binary from bin, then the run
// directory flag when the workload takes one, then the workload's
// arguments.
func (w *workload) command(bin, dir string) []string {
	argv := []string{filepath.Join(bin, w.args[0])}
	if w.dirFlag != "" {
		argv = append(argv, w.dirFlag, dir)
	}
	return append(argv, w.args[1:]...)
}
