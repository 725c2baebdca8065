// Package metrics quantifies result quality and result latency of a
// continuous query execution, by comparing emitted window results against
// the offline oracle (exact results over the loss-free, event-ordered
// stream).
//
// The central quality measure for aggregates is per-window relative error
//
//	err(w) = |emitted(w) − oracle(w)| / max(|oracle(w)|, 1e-9)
//
// and the user-facing quality bound θ is a bound on this error. For joins,
// quality is recall of result pairs (see PairMetrics).
package metrics

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/stats"
	"repro/internal/window"
)

// CompareOpts configures Compare.
type CompareOpts struct {
	// Theta is the quality bound used for the compliance ratio. Zero means
	// compliance is reported against Theta = 0 (exact windows only).
	Theta float64
	// SkipWarmup drops the first SkipWarmup windows (by index order) from
	// the comparison; adaptive handlers need a few windows to calibrate.
	SkipWarmup int
	// SkipEmptyOracle ignores windows the oracle reports as empty; there
	// is no meaningful value error for them. Count mismatches on such
	// windows are still reported via SpuriousWindows.
	SkipEmptyOracle bool
}

// QualityReport summarizes per-window error of one execution.
type QualityReport struct {
	Windows         int     // windows compared
	MeanRelErr      float64 // mean relative error
	MaxRelErr       float64 // maximum relative error
	P95RelErr       float64 // 95th-percentile relative error
	Compliance      float64 // fraction of windows with err <= Theta
	ExactWindows    int     // windows with zero error
	MissingWindows  int     // oracle windows absent from the emitted set
	SpuriousWindows int     // emitted windows absent from the oracle
	MeanLossFrac    float64 // mean fraction of window tuples missing vs oracle
}

// String renders the report.
func (q QualityReport) String() string {
	return fmt.Sprintf("quality{win=%d meanErr=%.4f%% maxErr=%.4f%% p95Err=%.4f%% compliance=%.2f%%}",
		q.Windows, 100*q.MeanRelErr, 100*q.MaxRelErr, 100*q.P95RelErr, 100*q.Compliance)
}

// Compare aligns emitted results with oracle results by window index and
// summarizes the error. Refinements in emitted overwrite earlier values
// for the same window (the consumer keeps the latest).
func Compare(emitted, oracle []window.Result, opts CompareOpts) QualityReport {
	em := window.ResultsByIdx(emitted)
	or := window.ResultsByIdx(oracle)

	idxs := make([]int64, 0, len(or))
	for idx := range or {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	if opts.SkipWarmup > 0 && opts.SkipWarmup < len(idxs) {
		idxs = idxs[opts.SkipWarmup:]
	} else if opts.SkipWarmup >= len(idxs) {
		idxs = nil
	}

	var rep QualityReport
	var errs []float64
	var lossSum float64
	var compliant int
	for _, idx := range idxs {
		o := or[idx]
		e, ok := em[idx]
		if !ok {
			rep.MissingWindows++
			continue
		}
		if opts.SkipEmptyOracle && o.Count == 0 {
			continue
		}
		err := RelErr(e.Value, o.Value)
		errs = append(errs, err)
		if err == 0 {
			rep.ExactWindows++
		}
		if err <= opts.Theta {
			compliant++
		}
		if err > rep.MaxRelErr {
			rep.MaxRelErr = err
		}
		if o.Count > 0 {
			miss := float64(o.Count-e.Count) / float64(o.Count)
			if miss < 0 {
				miss = 0
			}
			lossSum += miss
		}
	}
	for idx := range em {
		if _, ok := or[idx]; !ok {
			rep.SpuriousWindows++
		}
	}
	rep.Windows = len(errs)
	if len(errs) > 0 {
		var sum float64
		for _, e := range errs {
			sum += e
		}
		rep.MeanRelErr = sum / float64(len(errs))
		rep.P95RelErr = stats.Percentile(errs, 0.95)
		rep.Compliance = float64(compliant) / float64(len(errs))
		rep.MeanLossFrac = lossSum / float64(len(errs))
	}
	return rep
}

// relErrFloor is the denominator floor for relative error, guarding windows
// whose oracle value is ~0.
const relErrFloor = 1e-9

// RelErr is the relative-error definition, |e-o| / max(|o|, relErrFloor),
// treating NaN aggregates of empty windows as equal when both sides are NaN
// (e.g. avg of an empty window on both sides) and as total error when only
// one side is NaN.
func RelErr(e, o float64) float64 {
	eNaN, oNaN := math.IsNaN(e), math.IsNaN(o)
	switch {
	case eNaN && oNaN:
		return 0
	case eNaN || oNaN:
		return 1
	}
	den := math.Abs(o)
	if den < relErrFloor {
		den = relErrFloor
	}
	return math.Abs(e-o) / den
}

// ShedAdjustedErr folds load-shedding loss into a realized relative-error
// estimate. A shed tuple never reaches the operator, so estimators that
// only see accepted tuples (e.g. the adaptive handler's realized-error
// EWMA) understate the true error of a shedding run. To first order a
// uniformly shed fraction f of the input removes f of each window's mass,
// which for the additive aggregates is a relative error contribution of f;
// the adjusted estimate is therefore realized + shed/(shed+accepted).
// With nothing shed the estimate is returned unchanged, so honest runs
// pay nothing.
func ShedAdjustedErr(realized float64, shed, accepted int64) float64 {
	if shed <= 0 || shed+accepted <= 0 {
		return realized
	}
	return realized + float64(shed)/float64(shed+accepted)
}

// CompareKeyed aligns per-key results with the per-key oracle by
// (key, window index) and summarizes the error, mirroring Compare.
// SkipWarmup applies per key (each key's first windows are its warm-up).
func CompareKeyed(emitted, oracle []window.KeyedResult, opts CompareOpts) QualityReport {
	perKeyOracle := make(map[uint64][]window.Result)
	for _, r := range oracle {
		perKeyOracle[r.Key] = append(perKeyOracle[r.Key], r.Result)
	}
	perKeyEmitted := make(map[uint64][]window.Result)
	for _, r := range emitted {
		perKeyEmitted[r.Key] = append(perKeyEmitted[r.Key], r.Result)
	}

	var agg QualityReport
	var weightedErr, weightedP95, weightedLoss, weightedCompliance float64
	for key, orc := range perKeyOracle {
		rep := Compare(perKeyEmitted[key], orc, opts)
		if rep.Windows == 0 {
			agg.MissingWindows += rep.MissingWindows
			continue
		}
		w := float64(rep.Windows)
		agg.Windows += rep.Windows
		agg.ExactWindows += rep.ExactWindows
		agg.MissingWindows += rep.MissingWindows
		agg.SpuriousWindows += rep.SpuriousWindows
		weightedErr += rep.MeanRelErr * w
		weightedP95 += rep.P95RelErr * w
		weightedLoss += rep.MeanLossFrac * w
		weightedCompliance += rep.Compliance * w
		if rep.MaxRelErr > agg.MaxRelErr {
			agg.MaxRelErr = rep.MaxRelErr
		}
	}
	if agg.Windows > 0 {
		n := float64(agg.Windows)
		agg.MeanRelErr = weightedErr / n
		agg.P95RelErr = weightedP95 / n // window-weighted mean of per-key p95s
		agg.MeanLossFrac = weightedLoss / n
		agg.Compliance = weightedCompliance / n
	}
	return agg
}
