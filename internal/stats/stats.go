// Package stats provides the simulator's streaming mean/variance aggregate
// (Welford) and its snapshot form for saved artifacts. The
// coefficient-of-deviation support backs the paper's Table 5
// (per-invocation energy variation of kernel services), and the 95%
// confidence interval backs sampled simulation's stopping rule.
package stats

import "math"

// Welford accumulates a stream of float64 observations and reports mean,
// variance, standard deviation, and coefficient of deviation without storing
// the samples.
type Welford struct {
	n    uint64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() uint64 { return w.n }

// Mean returns the arithmetic mean, or 0 with no observations.
func (w *Welford) Mean() float64 { return w.mean }

// Min returns the smallest observation, or 0 with no observations.
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observation, or 0 with no observations.
func (w *Welford) Max() float64 { return w.max }

// Variance returns the population variance.
func (w *Welford) Variance() float64 {
	if w.n == 0 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// StdDev returns the population standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// CoeffDeviationPct returns the coefficient of deviation (stddev/mean) as a
// percentage, the metric used by the paper's Table 5. The ratio is undefined
// for a zero mean, so that case returns NaN rather than 0 — a zero would
// silently render a spread-out stream as "no variation" (report formatters
// print NaN as "n/a").
func (w *Welford) CoeffDeviationPct() float64 {
	if w.mean == 0 {
		return math.NaN()
	}
	return 100 * w.StdDev() / math.Abs(w.mean)
}

// SampleVariance returns the unbiased (n-1 denominator) sample variance,
// the estimator the sampled-simulation confidence intervals need. Undefined
// (NaN) with fewer than two observations.
func (w *Welford) SampleVariance() float64 {
	if w.n < 2 {
		return math.NaN()
	}
	return w.m2 / float64(w.n-1)
}

// tTable95 holds two-sided 95% Student-t multipliers indexed by degrees of
// freedom (1..30); beyond 30 the normal multiplier 1.96 is used.
var tTable95 = [31]float64{0,
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// CI95 returns the half-width of the two-sided 95% confidence interval on
// the mean, t·sqrt(s²/n) with the Student-t multiplier for n-1 degrees of
// freedom (exact for small n, 1.96 beyond 30). NaN with fewer than two
// observations, where the interval is undefined.
func (w *Welford) CI95() float64 {
	if w.n < 2 {
		return math.NaN()
	}
	df := w.n - 1
	t := 1.96
	if df <= 30 {
		t = tTable95[df]
	}
	return t * math.Sqrt(w.SampleVariance()/float64(w.n))
}

// Merge folds another aggregate into w (Chan et al. parallel combination).
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	w.m2 += o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.mean += d * float64(o.n) / float64(n)
	w.n = n
	if o.min < w.min {
		w.min = o.min
	}
	if o.max > w.max {
		w.max = o.max
	}
}

// WelfordState is the exported snapshot of a Welford aggregate, for
// serialisation into run logs. Restoring a snapshot reproduces the exact
// mean, variance, extrema and sample count, so aggregates merged after a
// save/load round trip equal aggregates merged live.
type WelfordState struct {
	N        uint64
	Mean     float64
	M2       float64
	Min, Max float64
}

// State snapshots the aggregate.
func (w *Welford) State() WelfordState {
	return WelfordState{N: w.n, Mean: w.mean, M2: w.m2, Min: w.min, Max: w.max}
}

// WelfordFromState reconstructs an aggregate from a snapshot.
func WelfordFromState(s WelfordState) Welford {
	return Welford{n: s.N, mean: s.Mean, m2: s.M2, min: s.Min, max: s.Max}
}
