package cq

import (
	"context"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/window"
)

func keyedWorkload(n int, seed uint64) gen.Config {
	c := gen.Sensor(n, seed)
	c.NumKeys = 16
	return c
}

func TestGroupedRunExactWithBigSlack(t *testing.T) {
	rep, err := New(keyedWorkload(20000, 51).Source()).
		Handle(buffer.NewKSlack(1<<40)).
		Window(testSpec, window.Sum()).
		GroupBy().
		KeepInput().
		Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Keyed) == 0 || len(rep.Results) != 0 {
		t.Fatalf("grouped query results misplaced: keyed=%d flat=%d", len(rep.Keyed), len(rep.Results))
	}
	q := rep.KeyedQuality(testSpec, window.Sum(), metrics.CompareOpts{SkipEmptyOracle: true})
	if q.MaxRelErr != 0 {
		t.Fatalf("fully buffered grouped query not exact: %v", q)
	}
	keys := map[uint64]bool{}
	for _, r := range rep.Keyed {
		keys[r.Key] = true
	}
	if len(keys) != 16 {
		t.Fatalf("results cover %d keys, want 16", len(keys))
	}
}

func TestGroupedRunWithAQHandler(t *testing.T) {
	spec := testSpec
	agg := window.Sum()
	h := core.NewAQKSlack(core.Config{Theta: 0.05, Spec: spec, Agg: agg})
	rep, err := New(keyedWorkload(30000, 52).Source()).
		Handle(h).
		Window(spec, agg).
		GroupBy().
		KeepInput().
		Run()
	if err != nil {
		t.Fatal(err)
	}
	// The AQ handler's realized error is the keyed operator's: one report
	// per (key, window), so the controller measures what the query
	// delivers, group by group.
	if h.Quality().FinalizedWins == 0 {
		t.Fatal("no (key, window) reached the controller")
	}
	q := rep.KeyedQuality(spec, agg, metrics.CompareOpts{
		Theta: 0.05, SkipWarmup: 5, SkipEmptyOracle: true,
	})
	if q.Windows == 0 {
		t.Fatal("no keyed windows compared")
	}
	if l := rep.Latency(5); l.Results == 0 {
		t.Fatal("keyed latency not measured")
	}
}

func TestGroupedRunConcurrent(t *testing.T) {
	var sunk int
	rep, err := New(keyedWorkload(5000, 53).Source()).
		Handle(buffer.NewKSlack(200)).
		Window(testSpec, window.Sum()).
		GroupBy().
		RunConcurrent(context.Background(), func(window.Result) { sunk++ })
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Keyed) == 0 || len(rep.Results) != 0 {
		t.Fatalf("grouped query results misplaced: keyed=%d flat=%d", len(rep.Keyed), len(rep.Results))
	}
	if sunk != len(rep.Keyed) {
		t.Fatalf("keyed sink saw %d results, report has %d", sunk, len(rep.Keyed))
	}
	keys := map[uint64]bool{}
	for _, r := range rep.Keyed {
		keys[r.Key] = true
	}
	if len(keys) != 16 {
		t.Fatalf("results cover %d keys, want 16", len(keys))
	}
}

func TestCompareKeyedMixedErrors(t *testing.T) {
	mk := func(key uint64, idx int64, v float64) window.KeyedResult {
		return window.KeyedResult{Key: key, Result: window.Result{
			Idx: idx, Start: idx * 10, End: idx*10 + 10, Value: v, Count: 1,
		}}
	}
	oracle := []window.KeyedResult{
		mk(1, 0, 100), mk(1, 1, 100),
		mk(2, 0, 100), mk(2, 1, 100),
	}
	emitted := []window.KeyedResult{
		mk(1, 0, 100), mk(1, 1, 100), // key 1 exact
		mk(2, 0, 90), mk(2, 1, 90), // key 2 off by 10%
	}
	q := metrics.CompareKeyed(emitted, oracle, metrics.CompareOpts{Theta: 0.05})
	if q.Windows != 4 {
		t.Fatalf("Windows = %d", q.Windows)
	}
	if got := q.MeanRelErr; got < 0.049 || got > 0.051 {
		t.Fatalf("MeanRelErr = %v, want ~0.05", got)
	}
	if got := q.Compliance; got != 0.5 {
		t.Fatalf("Compliance = %v, want 0.5", got)
	}
	if q.ExactWindows != 2 {
		t.Fatalf("ExactWindows = %d", q.ExactWindows)
	}
}

func TestCompareKeyedMissingKey(t *testing.T) {
	mk := func(key uint64, idx int64, v float64) window.KeyedResult {
		return window.KeyedResult{Key: key, Result: window.Result{Idx: idx, Value: v, Count: 1}}
	}
	oracle := []window.KeyedResult{mk(1, 0, 1), mk(2, 0, 1)}
	emitted := []window.KeyedResult{mk(1, 0, 1)}
	q := metrics.CompareKeyed(emitted, oracle, metrics.CompareOpts{})
	if q.MissingWindows != 1 {
		t.Fatalf("MissingWindows = %d", q.MissingWindows)
	}
}
