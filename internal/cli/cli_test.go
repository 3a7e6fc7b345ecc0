package cli

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"

	"softwatt"
	"softwatt/internal/obs"
)

// command mirrors how each CLI registers the shared set: its -core default
// and its own -timeline and -eprof flags, which CheckSampled inspects.
// swreport's -timeline is a log-viewer switch, and swreport never calls
// CheckSampled: there -sample only shapes the s1 experiment.
type command struct {
	name, core string
	viewer     bool // swreport: -timeline is a bool, no CheckSampled
}

var (
	softwattCmd = command{name: "softwatt", core: "mxs"}
	swsweepCmd  = command{name: "swsweep", core: "mipsy"}
	swreportCmd = command{name: "swreport", core: "", viewer: true}
)

func (c command) parse(t *testing.T, args []string) (*Flags, error) {
	t.Helper()
	fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs, c.core, "CPU model")
	if c.viewer {
		fs.Bool("timeline", false, "")
	} else {
		fs.Uint64("timeline", 0, "")
	}
	fs.String("eprof", "", "")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if c.viewer {
		return f, nil
	}
	return f, f.CheckSampled()
}

// TestSharedFlags maps each command's flags to the Options, SampleOptions
// and BatchOptions it runs with, including the flags a sampled run
// rejects.
func TestSharedFlags(t *testing.T) {
	cases := []struct {
		name    string
		cmd     command
		args    []string
		opt     softwatt.Options
		so      softwatt.SampleOptions
		b       softwatt.BatchOptions
		sampled bool
		wantErr string // substring of the CheckSampled error; "" = accepted
	}{
		{name: "softwatt defaults", cmd: softwattCmd,
			opt: softwatt.Options{Core: "mxs"}},
		{name: "swsweep defaults", cmd: swsweepCmd,
			opt: softwatt.Options{Core: "mipsy"}},
		{name: "swreport defaults", cmd: swreportCmd},
		{name: "full run", cmd: softwattCmd,
			args: []string{"-core", "mipsy", "-j", "3", "-timeline", "1000", "-eprof", "e.pb.gz"},
			opt:  softwatt.Options{Core: "mipsy"},
			so:   softwatt.SampleOptions{Workers: 3},
			b:    softwatt.BatchOptions{Workers: 3}},
		{name: "sampled", cmd: swsweepCmd,
			args:    []string{"-sample", "4", "-window", "5000", "-j", "2", "-ffcache", "ffc"},
			opt:     softwatt.Options{Core: "mipsy"},
			so:      softwatt.SampleOptions{Windows: 4, WindowCycles: 5000, Workers: 2, FFCacheDir: "ffc"},
			b:       softwatt.BatchOptions{Workers: 2},
			sampled: true},
		{name: "adaptive", cmd: softwattCmd,
			args:    []string{"-ci", "0.5", "-core", "mxs1"},
			opt:     softwatt.Options{Core: "mxs1"},
			so:      softwatt.SampleOptions{TargetCIW: 0.5},
			sampled: true},
		{name: "zero timeline is not given", cmd: softwattCmd,
			args:    []string{"-sample", "2", "-timeline", "0"},
			opt:     softwatt.Options{Core: "mxs"},
			so:      softwatt.SampleOptions{Windows: 2},
			sampled: true},
		{name: "softwatt sample with timeline and eprof", cmd: softwattCmd,
			args:    []string{"-sample", "2", "-timeline", "100000", "-eprof", "e.pb.gz"},
			opt:     softwatt.Options{Core: "mxs"},
			so:      softwatt.SampleOptions{Windows: 2},
			sampled: true,
			wantErr: "softwatt: -timeline, -eprof need a full detailed run, not -sample/-ci"},
		{name: "softwatt ci with eprof", cmd: softwattCmd,
			args:    []string{"-ci", "1", "-eprof", "e.pb.gz"},
			opt:     softwatt.Options{Core: "mxs"},
			so:      softwatt.SampleOptions{TargetCIW: 1},
			sampled: true,
			wantErr: "softwatt: -eprof needs a full detailed run"},
		{name: "swsweep sample with timeline", cmd: swsweepCmd,
			args:    []string{"-sample", "3", "-timeline", "5"},
			opt:     softwatt.Options{Core: "mipsy"},
			so:      softwatt.SampleOptions{Windows: 3},
			sampled: true,
			wantErr: "swsweep: -timeline needs a full detailed run"},
		{name: "swsweep ci with both", cmd: swsweepCmd,
			args:    []string{"-ci", "2", "-core", "mxs", "-timeline", "5", "-eprof", "p"},
			opt:     softwatt.Options{Core: "mxs"},
			so:      softwatt.SampleOptions{TargetCIW: 2},
			sampled: true,
			wantErr: "swsweep: -timeline, -eprof need a full detailed run, not -sample/-ci"},
		{name: "swreport s1 keeps shared flags", cmd: swreportCmd,
			args:    []string{"-sample", "2", "-window", "100", "-core", "mxs1", "-ci", "0.25", "-ffcache", "f", "-j", "1"},
			opt:     softwatt.Options{Core: "mxs1"},
			so:      softwatt.SampleOptions{Windows: 2, WindowCycles: 100, TargetCIW: 0.25, FFCacheDir: "f", Workers: 1},
			b:       softwatt.BatchOptions{Workers: 1},
			sampled: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := tc.cmd.parse(t, tc.args)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatal("accepted, want a rejection")
			case err != nil && !strings.Contains(err.Error(), tc.wantErr):
				t.Errorf("error %q does not contain %q", err, tc.wantErr)
			}
			if got := f.Options(); got != tc.opt {
				t.Errorf("Options = %+v, want %+v", got, tc.opt)
			}
			if got := f.SampleOptions(); !reflect.DeepEqual(got, tc.so) {
				t.Errorf("SampleOptions = %+v, want %+v", got, tc.so)
			}
			if got := f.BatchOptions(); !reflect.DeepEqual(got, tc.b) {
				t.Errorf("BatchOptions = %+v, want %+v", got, tc.b)
			}
			if f.Sampled() != tc.sampled {
				t.Errorf("Sampled = %v, want %v", f.Sampled(), tc.sampled)
			}
		})
	}
}

// TestRegisterDeclaresSharedFlags checks the one registration declares
// every shared flag, and pins the profiling and observability flags'
// usage text.
func TestRegisterDeclaresSharedFlags(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	Register(fs, "mipsy", "CPU model")
	for _, name := range []string{"core", "j", "sample", "window", "ci", "ffcache"} {
		if fs.Lookup(name) == nil {
			t.Errorf("-%s not declared", name)
		}
	}
	usage := map[string]string{
		"cpuprofile": "write a pprof CPU profile to this file",
		"memprofile": "write a pprof heap profile to this file on exit",
		"http":       "serve live /metrics (Prometheus text) and /debug/pprof on this address, e.g. :8080",
		"trace":      "write a Chrome trace-event JSON file of the run pipeline (open in Perfetto)",
	}
	for name, want := range usage {
		fl := fs.Lookup(name)
		switch {
		case fl == nil:
			t.Errorf("-%s not declared", name)
		case fl.Usage != want || fl.DefValue != "":
			t.Errorf("-%s: usage %q default %q, want usage %q default \"\"", name, fl.Usage, fl.DefValue, want)
		}
	}
	if got := fs.Lookup("core").DefValue; got != "mipsy" {
		t.Errorf("-core default %q, want mipsy", got)
	}
}

// exitChildEnv carries "mode|cpuprofile|memprofile|trace" to a child
// process of TestExitPathsFlush.
const exitChildEnv = "SOFTWATT_CLI_EXIT_CHILD"

// exitChild is the child's side: start profiling and tracing with a span
// left open, then leave through Fail ("fail") or wait for a signal
// ("signal").
func exitChild(t *testing.T, spec string) {
	parts := strings.Split(spec, "|")
	if len(parts) != 4 {
		t.Fatalf("%s=%q: want mode|cpuprofile|memprofile|trace", exitChildEnv, spec)
	}
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	f := Register(fs, "mipsy", "CPU model")
	if err := fs.Parse([]string{"-cpuprofile", parts[1], "-memprofile", parts[2], "-trace", parts[3]}); err != nil {
		t.Fatal(err)
	}
	f.Start()
	obs.StartSpan(0, "in flight", "test")
	switch parts[0] {
	case "fail":
		Fail(errors.New("child failed"))
	case "signal":
		fmt.Println("ready")
		select {}
	}
	t.Fatalf("unknown mode %q", parts[0])
}

// TestExitPathsFlush re-executes the test binary and ends the child
// through each exit path the commands have besides a normal return:
// Fail (status 1) and SIGINT (status 130). Each must leave the CPU
// profile, the heap profile and a parseable trace holding the span that
// was still open.
func TestExitPathsFlush(t *testing.T) {
	if spec := os.Getenv(exitChildEnv); spec != "" {
		exitChild(t, spec)
		return
	}
	for _, tc := range []struct {
		mode string
		code int
	}{{"fail", 1}, {"signal", 128 + int(syscall.SIGINT)}} {
		t.Run(tc.mode, func(t *testing.T) {
			dir := t.TempDir()
			files := []string{"cpu.pprof", "mem.pprof", "trace.json"}
			spec := tc.mode
			for _, name := range files {
				spec += "|" + filepath.Join(dir, name)
			}
			cmd := exec.Command(os.Args[0], "-test.run=^TestExitPathsFlush$", "-test.count=1")
			cmd.Env = append(os.Environ(), exitChildEnv+"="+spec)
			var stderr strings.Builder
			cmd.Stderr = &stderr
			stdout, err := cmd.StdoutPipe()
			if err != nil {
				t.Fatal(err)
			}
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			if tc.mode == "signal" {
				sc := bufio.NewScanner(stdout)
				for sc.Scan() && sc.Text() != "ready" {
				}
				if err := cmd.Process.Signal(os.Interrupt); err != nil {
					t.Fatal(err)
				}
			}
			io.Copy(io.Discard, stdout)
			err = cmd.Wait()
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != tc.code {
				t.Fatalf("child ended with %v, want exit status %d\n%s", err, tc.code, stderr.String())
			}
			for _, name := range files {
				fi, err := os.Stat(filepath.Join(dir, name))
				if err != nil || fi.Size() == 0 {
					t.Errorf("%s not written (%v)\n%s", name, err, stderr.String())
				}
			}
			checkTrace(t, filepath.Join(dir, "trace.json"))
		})
	}
}

// checkTrace requires the trace file at path to parse and to hold the
// span the test left open.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct{ TraceEvents []obs.TraceEvent }
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	for _, ev := range tf.TraceEvents {
		if ev.Name == "in flight" {
			return
		}
	}
	t.Errorf("trace lacks the open span: %s", b)
}

// TestStopConcurrent calls Stop from several goroutines at once, as a ^C
// during the deferred Stop does: the trace must come out whole, and under
// -race the calls must not race.
func TestStopConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f := Register(fs, "mipsy", "CPU model")
	if err := fs.Parse([]string{"-trace", path}); err != nil {
		t.Fatal(err)
	}
	f.Start()
	obs.StartSpan(0, "in flight", "test")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.Stop()
		}()
	}
	wg.Wait()
	checkTrace(t, path)
}
