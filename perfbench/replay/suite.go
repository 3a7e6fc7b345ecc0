package main

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"softwatt"
	"softwatt/internal/core"
)

// experiments are the ids `swreport -exp all` runs, in its order.
var experiments = []string{"v1", "t1", "f2", "f3", "f4", "f5", "f6", "f7", "f8", "t2", "t3", "t4", "t5", "x1", "x2", "f9", "a1", "a2", "s1"}

// suite is `swreport -exp all -j 1 -logs dir`: each experiment's
// simulations go through the facade's run-log cache, the all-benchmark MXS
// and Mipsy passes are computed once and shared, and each report is
// rendered. The text swreport prints around the reports is not repeated:
// the CLI's own output is checked on every untraced run, and the replay is
// tied to it by the run-log bytes both must write.
type suite struct {
	t         *tracer
	est       *core.Estimator
	logs      string
	mxsRuns   []*core.RunResult
	mipsyRuns []*core.RunResult
}

func replaySuite(t *tracer, logs string) error {
	s := &suite{t: t, est: softwatt.NewEstimator(), logs: logs}
	for _, id := range experiments {
		if err := s.run(id); err != nil {
			return fmt.Errorf("experiment %s: %w", id, err)
		}
	}
	return nil
}

func (s *suite) runs(specs []softwatt.RunSpec) ([]*core.RunResult, error) {
	return s.t.batch(func(b softwatt.BatchOptions) ([]*core.RunResult, error) {
		return softwatt.RunBatchCached(specs, s.logs, b)
	})
}

func (s *suite) one(bench string, opt softwatt.Options) (*core.RunResult, error) {
	res, err := s.runs([]softwatt.RunSpec{{Benchmark: bench, Options: opt}})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

func allBench(opt softwatt.Options) []softwatt.RunSpec {
	specs := make([]softwatt.RunSpec, len(softwatt.Benchmarks))
	for i, b := range softwatt.Benchmarks {
		specs[i] = softwatt.RunSpec{Benchmark: b, Options: opt}
	}
	return specs
}

func (s *suite) mxs() ([]*core.RunResult, error) {
	if s.mxsRuns == nil {
		runs, err := s.runs(allBench(softwatt.Options{Core: "mxs"}))
		if err != nil {
			return nil, err
		}
		s.mxsRuns = runs
	}
	return s.mxsRuns, nil
}

func (s *suite) mipsy() ([]*core.RunResult, error) {
	if s.mipsyRuns == nil {
		runs, err := s.runs(allBench(softwatt.Options{Core: "mipsy"}))
		if err != nil {
			return nil, err
		}
		s.mipsyRuns = runs
	}
	return s.mipsyRuns, nil
}

// mxsReport renders one report over the shared MXS pass.
func (s *suite) mxsReport(f func(runs []*core.RunResult) string) error {
	runs, err := s.mxs()
	if err != nil {
		return err
	}
	report(func() string { return f(runs) })
	return nil
}

// run is one experiment: its simulations and its reports.
func (s *suite) run(id string) error {
	est := s.est
	switch id {
	case "v1":
		span("core.report", func() { softwatt.ValidateMaxPower() })

	case "t1", "f2":
		// Configuration tables: text only.

	case "f3":
		runs, err := s.runs([]softwatt.RunSpec{
			{Benchmark: "jess", Options: softwatt.Options{Core: "mipsy"}},
			{Benchmark: "jess", Options: softwatt.Options{Core: "mxs1"}},
		})
		if err != nil {
			return err
		}
		report(func() string { return est.RenderProfile(runs[0], "") + est.RenderProfile(runs[1], "") })

	case "f4":
		return s.mxsReport(func(runs []*core.RunResult) string { return est.RenderProfile(runs[1], "") })

	case "f5":
		return s.mxsReport(func(runs []*core.RunResult) string { return est.RenderBudget(runs, "") })

	case "f6":
		return s.mxsReport(est.RenderFig6)

	case "f7":
		runs, err := s.runs(allBench(softwatt.Options{Core: "mxs", DiskPolicy: "idle"}))
		if err != nil {
			return err
		}
		report(func() string { return est.RenderBudget(runs, "") })

	case "f8":
		return s.mxsReport(est.RenderFig8)

	case "t2":
		return s.mxsReport(est.RenderTable2)

	case "t3":
		return s.mxsReport(est.RenderTable3)

	case "t4":
		return s.mxsReport(est.RenderTable4)

	case "t5":
		return s.mxsReport(est.RenderTable5)

	case "x1":
		if _, err := s.mipsy(); err != nil {
			return err
		}
		_, err := s.mxs()
		return err

	case "x2":
		r, err := s.one("jess", softwatt.Options{Core: "mipsy"})
		if err != nil {
			return err
		}
		span("core.report", func() { est.PowerBudget([]*core.RunResult{r}) })

	case "f9":
		var specs []softwatt.RunSpec
		for _, bench := range softwatt.Benchmarks {
			for _, pol := range softwatt.DiskPolicies {
				specs = append(specs, softwatt.RunSpec{Benchmark: bench, Options: softwatt.Options{Core: "mipsy", DiskPolicy: pol}})
			}
		}
		results, err := s.runs(specs)
		if err != nil {
			return err
		}
		report(func() string {
			rows := make([]softwatt.Fig9Row, len(results))
			for i, r := range results {
				rows[i] = softwatt.Fig9Row{Benchmark: specs[i].Benchmark, Policy: specs[i].Options.DiskPolicy,
					DiskJ: r.DiskEnergyJ, IdleCycles: r.IdleCycles, Spinups: r.DiskStats.Spinups,
					Spindowns: r.DiskStats.Spindowns, Cycles: r.TotalCycles}
			}
			return softwatt.RenderFig9(rows)
		})

	case "a1":
		for _, halt := range []bool{false, true} {
			r, err := s.one("jess", softwatt.Options{Core: "mipsy", IdleHalt: halt})
			if err != nil {
				return err
			}
			span("core.report", func() {
				est.ModeAveragePower([]*core.RunResult{r})
				est.Summarize(r)
			})
		}

	case "a2":
		runs, err := s.mipsy()
		if err != nil {
			return err
		}
		span("core.report", func() { est.CrossValidateTraceEstimation(runs) })

	case "s1":
		// RunSampledCached has no spans, so its lookup, sampled run and
		// save are driven here: the lookup misses on a fresh -logs dir.
		opt := softwatt.Options{Core: "mipsy"}
		so := softwatt.SampleOptions{Windows: 4, WindowCycles: 100_000}
		name, err := softwatt.SampledCacheFileName("compress", opt, so)
		if err != nil {
			return err
		}
		path := filepath.Join(s.logs, name)
		span("trace.load", func() { _, err = softwatt.LoadSampledResultFile(path) })
		if !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("%s: want a cache miss, got %v", path, err)
		}
		sr, err := s.t.sampled("compress", opt, fixedSampling(so.Windows, so.WindowCycles), "", false)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(s.logs, 0o755); err != nil {
			return err
		}
		span("runlog.write", func() { err = softwatt.SaveSampledResultFile(path, sr) })
		if err != nil {
			return err
		}
		r, err := s.one("compress", opt)
		if err != nil {
			return err
		}
		span("core.report", func() { est.Summarize(r) })

	default:
		return fmt.Errorf("unknown experiment id %q", id)
	}
	return nil
}
