package cli

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"softwatt"
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
// every shared flag plus the profiling and observability flags.
func TestRegisterDeclaresSharedFlags(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	Register(fs, "mipsy", "CPU model")
	for _, name := range []string{"core", "j", "sample", "window", "ci", "ffcache",
		"cpuprofile", "memprofile", "http", "trace"} {
		if fs.Lookup(name) == nil {
			t.Errorf("-%s not declared", name)
		}
	}
	if got := fs.Lookup("core").DefValue; got != "mipsy" {
		t.Errorf("-core default %q, want mipsy", got)
	}
}
