package core_test

import (
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/join"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/tracez"
	"repro/internal/stream"
)

// runJoinQuery runs a join query behind h over the Src-tagged stream: the
// query's join stage feeds an adaptive handler the realized recall.
func runJoinQuery(t *testing.T, h buffer.Handler, cfg join.Config, all []stream.Tuple) *cq.JoinReport {
	t.Helper()
	rep, err := cq.NewJoin(stream.FromTuples(all), stream.FromTuples(nil), cfg).Handle(h).Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestAQJoinMeetsRecallTarget(t *testing.T) {
	all, left, right := core.TwoStreams(15000, 31)
	cfg := join.Config{Band: 500, RetainFor: 60 * stream.Second}
	aq := core.NewAQJoin(core.JoinConfig{Recall: 0.99, Band: cfg.Band})
	rep := metrics.PairMetrics(join.PairSet(runJoinQuery(t, aq, cfg, all).Results), join.OraclePairs(cfg, left, right))
	// Allow warm-up slack below the steady-state target.
	if rep.Recall < 0.97 {
		t.Fatalf("recall %v misses 0.99 target by more than warm-up slack (%v)", rep.Recall, rep)
	}
	if rep.Precision < 0.999 {
		t.Fatalf("join emitted wrong pairs: precision %v", rep.Precision)
	}
	if aq.Quality().Adaptations == 0 || aq.K() <= 0 {
		t.Fatalf("recall handler did not adapt: adaptations=%d K=%d", aq.Quality().Adaptations, aq.K())
	}
}

func TestAQJoinKMonotoneInRecall(t *testing.T) {
	all, _, _ := core.TwoStreams(15000, 35)
	meanK := func(recall float64) float64 {
		cfg := join.Config{Band: 500, RetainFor: 60 * stream.Second}
		aq := core.NewAQJoin(core.JoinConfig{Recall: recall, Band: cfg.Band})
		runJoinQuery(t, aq, cfg, all)
		tr := aq.Trace()
		if len(tr) == 0 {
			t.Fatalf("recall=%v: no trace", recall)
		}
		var sum float64
		for _, s := range tr[len(tr)/2:] {
			sum += float64(s.K)
		}
		return sum / float64(len(tr)-len(tr)/2)
	}
	tight := meanK(0.999)
	loose := meanK(0.90)
	if loose >= tight {
		t.Fatalf("steady K not monotone in recall: K(99.9%%)=%v <= K(90%%)=%v", tight, loose)
	}
}

// TestAQJoinFeedbackClosesTheLoop: behind a join query the recall handler is
// fed — its realized miss rate takes values and its PI trim leaves 1 — while
// the same handler driven by Insert alone has no one to report to it: its
// realized miss rate stays 0 and its PI factor 1 at every adaptation, so it
// decides on the model alone.
func TestAQJoinFeedbackClosesTheLoop(t *testing.T) {
	all, _, _ := core.TwoStreams(8000, 31)
	cfg := join.Config{Band: 500, RetainFor: 60 * stream.Second}

	fed := core.NewAQJoin(core.JoinConfig{Recall: 0.99, Band: cfg.Band})
	runJoinQuery(t, fed, cfg, all)
	realized, trimmed := false, false
	for _, s := range fed.Trace() {
		realized = realized || s.RealizedErr != 0
		trimmed = trimmed || s.PIFactor != 1
	}
	if !realized || !trimmed {
		t.Fatalf("closed loop over %d adaptations: realized miss rate seen %v, PI factor left 1 %v",
			len(fed.Trace()), realized, trimmed)
	}

	open := core.NewAQJoin(core.JoinConfig{Recall: 0.99, Band: cfg.Band})
	var out []stream.Tuple
	for _, tp := range all {
		out = open.Insert(stream.DataItem(tp), out)
	}
	open.Flush(out)
	if len(open.Trace()) < 100 {
		t.Fatalf("open loop adapted only %d times", len(open.Trace()))
	}
	for i, s := range open.Trace() {
		if s.PIFactor != 1 || s.RealizedErr != 0 {
			t.Fatalf("open loop, adaptation %d: PI factor %v, realized miss rate %v: want 1 and 0", i, s.PIFactor, s.RealizedErr)
		}
	}
}

// TestAQJoinTracedRecordsQuality: behind a join query, a traced and
// instrumented recall handler records one flight-recorder quality sample and
// one finalized count per report it folds, as the loss model does per window.
func TestAQJoinTracedRecordsQuality(t *testing.T) {
	all, _, _ := core.TwoStreams(8000, 31)
	cfg := join.Config{Band: 500, RetainFor: 60 * stream.Second}
	aq := core.NewAQJoin(core.JoinConfig{Recall: 0.99, Band: cfg.Band})
	rec := tracez.NewRecorder(1 << 14)
	aq.TraceTo(tracez.New(rec, "join"))
	reg := obs.NewRegistry()
	tel := core.NewTelemetry(reg, "join")
	aq.Instrument(tel)
	runJoinQuery(t, aq, cfg, all)

	var samples []tracez.Event
	for _, ev := range rec.Events() {
		if ev.Kind == tracez.KindQuality {
			samples = append(samples, ev)
		}
	}
	folded := aq.Quality().FinalizedWins
	if folded == 0 || int64(len(samples)) != folded || tel.Finalized.Value() != float64(folded) {
		t.Fatalf("folded %d reports, recorded %d quality samples, counted %v finalized: want one each, and some",
			folded, len(samples), tel.Finalized.Value())
	}
	for i, ev := range samples {
		if ev.Win != int64(i) || ev.V < 0 || ev.V > 1 {
			t.Fatalf("quality sample %d = %+v: want report %d with a miss rate in [0, 1]", i, ev, i)
		}
	}
	if last := samples[len(samples)-1].V; last != aq.Quality().RealizedErrEWMA {
		t.Fatalf("last sample %v, realized miss-rate EWMA %v", last, aq.Quality().RealizedErrEWMA)
	}
}
