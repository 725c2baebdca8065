package core

import (
	"encoding/json"
	"testing"

	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/window"
)

func TestPIStateContinuation(t *testing.T) {
	a := aggressivePI()
	for i := 0; i < 50; i++ {
		a.Update(float64(i%7-3) * 0.8) // drive through clamps and sign flips
	}
	b := &PI{} // gains come from the state, per the export contract
	b.Restore(a.State())
	for i := 0; i < 50; i++ {
		sig := float64(i%5-2) * 1.3
		if fa, fb := a.Update(sig), b.Update(sig); fa != fb {
			t.Fatalf("factor diverged at step %d: %v vs %v", i, fa, fb)
		}
	}
	if a.Clamps() != b.Clamps() || a.integral != b.integral || a.lastFactor != b.lastFactor || a.hasOutput != b.hasOutput {
		t.Fatalf("controller internals diverged: %+v vs %+v", a.State(), b.State())
	}
}

func TestEstimatorStateContinuation(t *testing.T) {
	spec := window.Spec{Size: 100, Slide: 50}
	cfg := EstimatorConfig{Seed: 12, ReservoirSize: 64, MCTrials: 8}
	a := NewEstimator(spec, window.Avg(), cfg)
	rng := stats.NewRNG(4)
	for i := 0; i < 400; i++ {
		a.ObserveTuple(rng.ExpFloat64()*30, rng.NormFloat64()*10+50)
		if i%25 == 0 {
			a.ObserveWindowCount(int64(10 + rng.Intn(5)))
		}
	}
	_ = a.EstimateErr(40) // consume Monte-Carlo RNG draws before the snapshot

	b := NewEstimator(spec, window.Avg(), cfg)
	b.Restore(a.State())

	for i := 0; i < 300; i++ {
		late, val := rng.ExpFloat64()*30, rng.NormFloat64()*10+50
		a.ObserveTuple(late, val)
		b.ObserveTuple(late, val)
		if i%50 == 0 {
			// MC estimates consume RNG state; both must stay in lockstep.
			if ea, eb := a.EstimateErr(stream.Time(i)), b.EstimateErr(stream.Time(i)); ea != eb {
				t.Fatalf("estimate diverged at step %d: %v vs %v", i, ea, eb)
			}
			if ka, kb := a.MinK(0.01, 5000), b.MinK(0.01, 5000); ka != kb {
				t.Fatalf("MinK diverged at step %d: %d vs %d", i, ka, kb)
			}
		}
	}
	if a.Observations() != b.Observations() {
		t.Fatalf("observation counts diverged: %d vs %d", a.Observations(), b.Observations())
	}
}

func aqItems(seed uint64, n int) []stream.Item {
	rng := stats.NewRNG(seed)
	type arr struct {
		t   stream.Tuple
		pos stream.Time
	}
	tuples := make([]arr, n)
	for i := range tuples {
		ts := stream.Time(i) * 5
		delay := stream.Time(rng.ExpFloat64() * 40)
		tuples[i] = arr{
			t:   stream.Tuple{TS: ts, Arrival: ts + delay, Seq: uint64(i), Value: rng.NormFloat64()*20 + 100},
			pos: ts + delay,
		}
	}
	// Stable insertion sort by arrival keeps determinism.
	for i := 1; i < len(tuples); i++ {
		for j := i; j > 0 && tuples[j].pos < tuples[j-1].pos; j-- {
			tuples[j], tuples[j-1] = tuples[j-1], tuples[j]
		}
	}
	items := make([]stream.Item, n)
	for i, a := range tuples {
		items[i] = stream.DataItem(a.t)
	}
	return items
}

func TestAQKSlackStateContinuation(t *testing.T) {
	mk := func() *AQKSlack {
		return NewAQKSlack(Config{
			Theta:        0.02,
			Spec:         window.Spec{Size: 200, Slide: 100},
			Agg:          window.Avg(),
			WarmupTuples: 50,
			Estimator:    EstimatorConfig{Seed: 33, ReservoirSize: 128, MCTrials: 4},
		})
	}
	a := mk()
	items := aqItems(77, 3000)

	// Cut between two refreshes of the loss curve: the restored handler
	// must go on reading the very curve the original cached.
	cut := len(items) / 2
	var scratch []stream.Tuple
	for i, it := range items {
		if i >= cut && a.curveAge == a.cfg.LossRefresh/2 {
			cut = i
			break
		}
		scratch = a.Insert(it, scratch[:0])
	}
	if a.curve.errs == nil || a.curveAge == 0 {
		t.Fatalf("test setup: cut at %d is not between refreshes (age %d)", cut, a.curveAge)
	}
	// Through JSON, as internal/durable stores it.
	raw, err := json.Marshal(a.State())
	if err != nil {
		t.Fatal(err)
	}
	var st AQState
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	traced := len(a.Trace())

	b := mk()
	if err := b.Restore(st); err != nil {
		t.Fatal(err)
	}

	var relA, relB []stream.Tuple
	for _, it := range items[cut:] {
		relA = a.Insert(it, relA)
		relB = b.Insert(it, relB)
		if a.K() != b.K() {
			t.Fatalf("slack decisions diverged: K=%d vs %d after %v", a.K(), b.K(), it)
		}
	}
	relA = a.Flush(relA)
	relB = b.Flush(relB)

	if len(relA) != len(relB) {
		t.Fatalf("release counts diverged: %d vs %d", len(relA), len(relB))
	}
	for i := range relA {
		if relA[i] != relB[i] {
			t.Fatalf("release %d diverged: %v vs %v", i, relA[i], relB[i])
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("buffer stats diverged: %v vs %v", a.Stats(), b.Stats())
	}
	if a.Quality() != b.Quality() {
		t.Fatalf("quality stats diverged: %+v vs %+v", a.Quality(), b.Quality())
	}
	// The trace restarts empty on restore; from there on every sample —
	// slack, estimated error, trim — must match the original's.
	trA, trB := a.Trace()[traced:], b.Trace()
	if len(trB) < 2*a.cfg.LossRefresh || len(trA) != len(trB) {
		t.Fatalf("test setup: %d vs %d adaptations after the cut, want a few refreshes", len(trA), len(trB))
	}
	for i := range trA {
		if trA[i] != trB[i] {
			t.Fatalf("adaptation %d after the cut diverged: %+v vs %+v", i, trA[i], trB[i])
		}
	}
	if b.cfg.Theta != 0.02 {
		t.Fatalf("restored theta: got %v", b.cfg.Theta)
	}
}

// TestAQKSlackRestoreWithoutCurve: a snapshot that carries no loss curve
// restores, and the next adaptation refreshes instead of reading nothing.
func TestAQKSlackRestoreWithoutCurve(t *testing.T) {
	mk := func() *AQKSlack {
		return NewAQKSlack(Config{
			Theta: 0.05, Spec: window.Spec{Size: 100, Slide: 50}, Agg: window.Sum(),
			WarmupTuples: 30, Estimator: EstimatorConfig{Seed: 9, ReservoirSize: 64, MCTrials: 2},
		})
	}
	a := mk()
	items := aqItems(5, 1600)
	var scratch []stream.Tuple
	for _, it := range items[:800] {
		scratch = a.Insert(it, scratch[:0])
	}
	st := a.State()
	if st.Curve == nil || st.CurveAge == 0 {
		t.Fatalf("test setup: want a snapshot between refreshes, got age %d", st.CurveAge)
	}
	st.Curve = nil
	b := mk()
	if err := b.Restore(st); err != nil {
		t.Fatal(err)
	}
	before := b.Quality().Adaptations
	for _, it := range items[800:] {
		scratch = b.Insert(it, scratch[:0])
		if b.Quality().Adaptations > before {
			break
		}
	}
	if b.Quality().Adaptations == before || b.curve.errs == nil {
		t.Fatalf("no refresh at the first adaptation after restore (adaptations %d -> %d)",
			before, b.Quality().Adaptations)
	}
}

func TestAQKSlackStateSnapshotIsDeterministic(t *testing.T) {
	mk := func() *AQKSlack {
		return NewAQKSlack(Config{
			Theta: 0.05, Spec: window.Spec{Size: 100, Slide: 50}, Agg: window.Sum(),
			WarmupTuples: 30, Estimator: EstimatorConfig{Seed: 9, ReservoirSize: 64, MCTrials: 2},
		})
	}
	a, b := mk(), mk()
	var scratch []stream.Tuple
	for _, it := range aqItems(5, 800) {
		scratch = a.Insert(it, scratch[:0])
		scratch = b.Insert(it, scratch[:0])
	}
	// Two handlers fed the same items must export the same bytes.
	sa, err := json.Marshal(a.State())
	if err != nil {
		t.Fatal(err)
	}
	sb, err := json.Marshal(b.State())
	if err != nil {
		t.Fatal(err)
	}
	if string(sa) != string(sb) {
		t.Fatalf("state nondeterministic:\n%s\n%s", sa, sb)
	}
}
