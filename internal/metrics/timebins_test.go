package metrics

import (
	"math"
	"strings"
	"testing"

	"repro/internal/window"
)

func binRes(idx int64, value float64, count int64, latency int64) window.Result {
	return window.Result{
		Idx: idx, Start: idx * 10, End: idx*10 + 10,
		Value: value, Count: count, EmitArrival: idx*10 + 10 + latency,
	}
}

func TestTimeBinnedBuckets(t *testing.T) {
	var oracle, emitted []window.Result
	// 10 windows ending at 10..100; bin size 50 -> bins [0,50) and beyond.
	for i := int64(0); i < 10; i++ {
		oracle = append(oracle, binRes(i, 100, 1, 0))
		v := 100.0
		if i >= 5 {
			v = 90 // 10% error in the later windows
		}
		emitted = append(emitted, binRes(i, v, 1, 7))
	}
	bins := TimeBinned(emitted, oracle, 50, 0.05)
	if len(bins) != 3 {
		t.Fatalf("got %d bins: %v", len(bins), bins)
	}
	// Bin 0 covers window ends 10..40 (idx 0..3): exact.
	if bins[0].MeanRelErr != 0 || bins[0].Compliance != 1 {
		t.Fatalf("bin 0: %+v", bins[0])
	}
	// Last bin covers ends 100..: all 10% error.
	last := bins[len(bins)-1]
	if math.Abs(last.MeanRelErr-0.1) > 1e-9 || last.Compliance != 0 {
		t.Fatalf("last bin: %+v", last)
	}
	if last.MeanLat != 7 {
		t.Fatalf("latency not carried: %+v", last)
	}
	if s := bins[0].String(); !strings.Contains(s, "bin[") {
		t.Fatalf("String = %q", s)
	}
}

func TestTimeBinnedSkipsMissingAndEmpty(t *testing.T) {
	oracle := []window.Result{binRes(0, 100, 1, 0), binRes(1, 0, 0, 0), binRes(2, 100, 1, 0)}
	emitted := []window.Result{binRes(0, 100, 1, 0)} // idx 2 missing
	bins := TimeBinned(emitted, oracle, 10, 0.01)
	total := 0
	for _, b := range bins {
		total += b.Windows
	}
	if total != 1 {
		t.Fatalf("compared %d windows, want 1: %v", total, bins)
	}
}

func TestTimeBinnedEmpty(t *testing.T) {
	if bins := TimeBinned(nil, nil, 10, 0.1); bins != nil {
		t.Fatalf("empty input produced bins: %v", bins)
	}
}
