package metrics

import (
	"fmt"

	"repro/internal/window"
)

// TimeBin aggregates quality and latency over one event-time bin — the
// building block for error-over-time figures (e.g. around a delay step).
type TimeBin struct {
	Start, End int64 // event-time interval [Start, End)
	Windows    int
	MeanRelErr float64
	MaxRelErr  float64
	Compliance float64 // fraction of windows with err <= theta
	MeanLat    float64
}

// String renders the bin.
func (b TimeBin) String() string {
	return fmt.Sprintf("bin[%d,%d) win=%d err=%.4f%% lat=%.0f", b.Start, b.End, b.Windows, 100*b.MeanRelErr, b.MeanLat)
}

// TimeBinned buckets per-window errors by the window's event-time end and
// summarizes each bucket, so a quality trace can be plotted against the
// workload's timeline. Bins with no compared windows are omitted. theta
// feeds the per-bin compliance.
func TimeBinned(emitted, oracle []window.Result, binSize int64, theta float64) []TimeBin {
	if binSize <= 0 {
		binSize = 1
	}
	em := window.ResultsByIdx(emitted)
	type acc struct {
		errs []float64
		lats []float64
	}
	bins := make(map[int64]*acc)
	var minBin, maxBin int64
	first := true
	for _, o := range oracle {
		e, ok := em[o.Idx]
		if !ok || o.Count == 0 {
			continue
		}
		b := o.End / binSize
		a := bins[b]
		if a == nil {
			a = &acc{}
			bins[b] = a
		}
		a.errs = append(a.errs, RelErr(e.Value, o.Value))
		a.lats = append(a.lats, float64(e.Latency()))
		if first || b < minBin {
			minBin = b
		}
		if first || b > maxBin {
			maxBin = b
		}
		first = false
	}
	if first {
		return nil
	}
	out := make([]TimeBin, 0, maxBin-minBin+1)
	for b := minBin; b <= maxBin; b++ {
		a := bins[b]
		if a == nil {
			continue
		}
		tb := TimeBin{Start: b * binSize, End: (b + 1) * binSize, Windows: len(a.errs)}
		var errSum, latSum float64
		compliant := 0
		for i, e := range a.errs {
			errSum += e
			latSum += a.lats[i]
			if e > tb.MaxRelErr {
				tb.MaxRelErr = e
			}
			if e <= theta {
				compliant++
			}
		}
		tb.MeanRelErr = errSum / float64(len(a.errs))
		tb.MeanLat = latSum / float64(len(a.lats))
		tb.Compliance = float64(compliant) / float64(len(a.errs))
		out = append(out, tb)
	}
	return out
}
