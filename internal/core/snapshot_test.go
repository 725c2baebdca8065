package core

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"testing"

	"repro/internal/snapjson"
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
	if a.Clamps() != b.Clamps() || a.integral != b.integral {
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
		if i >= cut && a.curveAge == lossRefresh/2 {
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
	if len(trB) < 2*lossRefresh || len(trA) != len(trB) {
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

// TestAQKSlackRestoresSweptSumCurve: a sum handler's snapshot written while
// sum's loss curve was still a Monte-Carlo sweep carries that curve. It
// restores: up to the next refresh the restored handler reads the swept
// curve and decides exactly as the sweeping handler does, then it takes the
// closed form, and two restores of the one snapshot agree to the bit.
func TestAQKSlackRestoresSweptSumCurve(t *testing.T) {
	cfg := func(agg window.Factory) Config { return Config{Theta: 0.01, Spec: pinnedSpec(), Agg: agg} }
	// A sum under another name runs the sweep, as sum's loss model once did.
	a := NewAQKSlack(cfg(window.Factory{Name: "swept-sum", New: window.Sum().New}))
	var items []stream.Item
	for _, tp := range driftTuples(20_000, 51) {
		items = append(items, stream.DataItem(tp))
	}
	cut := len(items) / 2
	var scratch []stream.Tuple
	for i, it := range items {
		if i >= cut && a.curveAge == lossRefresh/2 {
			cut = i
			break
		}
		scratch = a.Insert(it, scratch[:0])
	}
	raw, err := json.Marshal(a.State())
	if err != nil {
		t.Fatal(err)
	}
	var st AQState
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.CurveAge != lossRefresh/2 || len(st.Curve) != curvePoints || st.Curve[20] == lossGrid[20] {
		t.Fatalf("test setup: want a swept curve between refreshes, got age %d, curve %v", st.CurveAge, st.Curve)
	}
	restore := func() *AQKSlack {
		b := NewAQKSlack(cfg(window.Sum()))
		if err := b.Restore(st); err != nil {
			t.Fatal(err)
		}
		return b
	}
	b, c := restore(), restore()
	traced := len(a.Trace())
	var relB, relC []stream.Tuple
	for _, it := range items[cut:] {
		scratch = a.Insert(it, scratch[:0])
		relB = b.Insert(it, relB)
		relC = c.Insert(it, relC)
	}
	relB, relC = b.Flush(relB), c.Flush(relC)
	if len(relB) != len(relC) {
		t.Fatalf("restores released %d and %d tuples", len(relB), len(relC))
	}
	for i := range relB {
		if relB[i] != relC[i] {
			t.Fatalf("restores' release %d diverged: %v vs %v", i, relB[i], relC[i])
		}
	}
	trA, trB, trC := a.Trace()[traced:], b.Trace(), c.Trace()
	stale := lossRefresh - st.CurveAge // adaptations that read the restored curve
	if len(trB) < 2*lossRefresh || len(trA) != len(trB) || len(trB) != len(trC) {
		t.Fatalf("test setup: %d, %d and %d adaptations after the cut", len(trA), len(trB), len(trC))
	}
	for i := range trB {
		if trB[i] != trC[i] {
			t.Fatalf("restores' adaptation %d diverged: %+v vs %+v", i, trB[i], trC[i])
		}
		if i < stale && trA[i] != trB[i] {
			t.Fatalf("adaptation %d, before the refresh, diverged from the sweeping handler: %+v vs %+v", i, trA[i], trB[i])
		}
	}
	if got := b.curve.errs; got[20] != lossGrid[20] || got[curvePoints-1] != 1 {
		t.Fatalf("after its refresh the restored sum handler holds %v, not the closed form", got)
	}
}

// TestRestoresGKLatenessState: a handler state written while the estimator
// kept a Greenwald–Khanna sketch of lateness restores. testdata/gk-states.json
// holds both models' states after 12 004 drift tuples, each sketch with
// values pending, recorded by that version (θ = 1 %, a 64-value reservoir
// seeded 3; recall 95 % over a 500 ms band). Two restores agree to the bit,
// the histogram holds every observation, and the restored handler continues
// to the bit beside a copy of itself restored from its own state.
func TestRestoresGKLatenessState(t *testing.T) {
	raw, err := os.ReadFile("testdata/gk-states.json")
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Cut          int
		Loss, Recall json.RawMessage
	}
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	var items []stream.Item
	for _, tp := range driftTuples(20_000, 51) {
		items = append(items, stream.DataItem(tp))
	}
	for _, tc := range []struct {
		name string
		raw  json.RawMessage
		mk   func() *AQKSlack
	}{
		{"loss", rec.Loss, func() *AQKSlack {
			return NewAQKSlack(Config{Theta: 0.01, Spec: pinnedSpec(), Agg: window.Sum(),
				Estimator: EstimatorConfig{ReservoirSize: 64, Seed: 3}})
		}},
		{"recall", rec.Recall, func() *AQKSlack { return NewAQJoin(JoinConfig{Recall: 0.95, Band: 500}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			restore := func(raw []byte) *AQKSlack {
				t.Helper()
				var st AQState
				if err := snapjson.Unmarshal(raw, &st); err != nil {
					t.Fatal(err)
				}
				h := tc.mk()
				if err := h.Restore(st); err != nil {
					t.Fatal(err)
				}
				return h
			}
			save := func(h *AQKSlack) []byte {
				t.Helper()
				b, err := snapjson.Marshal(h.State())
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			var old AQState
			if err := snapjson.Unmarshal(tc.raw, &old); err != nil {
				t.Fatal(err)
			}
			if gk := old.Est.Lateness; gk == nil || len(gk.Entries) == 0 || len(gk.Pending) == 0 {
				t.Fatalf("fixture holds no sketch with pending values: %+v", gk)
			}
			a, b := restore(tc.raw), restore(tc.raw)
			st := save(a)
			if !bytes.Equal(st, save(b)) {
				t.Fatal("two restores of one state save differently")
			}
			var counted int64
			for _, c := range a.est.lateness.State().Counts {
				counted += c
			}
			if counted != old.Est.Observed || a.State().Est.Lateness != nil {
				t.Fatalf("histogram counts %d of %d observations (sketch carried: %v)",
					counted, old.Est.Observed, a.State().Est.Lateness != nil)
			}
			c := restore(st)
			for i, it := range items[rec.Cut:] {
				if got, want := c.Insert(it, nil), a.Insert(it, nil); !slices.Equal(got, want) {
					t.Fatalf("item %d: copy released %v, restored handler %v", rec.Cut+i, got, want)
				}
			}
			if got, want := c.Trace(), a.Trace(); len(want) < 50 || !slices.Equal(got, want) {
				t.Fatalf("copy's trace of %d adaptations differs from the restored handler's %d", len(got), len(want))
			}
		})
	}
}
