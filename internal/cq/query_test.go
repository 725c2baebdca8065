package cq

import (
	"context"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/join"
	"repro/internal/metrics"
	"repro/internal/stream"
	"repro/internal/window"
)

var testSpec = window.Spec{Size: 10 * stream.Second, Slide: stream.Second}

func TestRunValidates(t *testing.T) {
	if _, err := New(nil).Window(testSpec, window.Sum()).Run(); err == nil {
		t.Fatal("nil source accepted")
	}
	if _, err := New(gen.Sensor(10, 1).Source()).Run(); err == nil {
		t.Fatal("missing window accepted")
	}
	if _, err := New(gen.Sensor(10, 1).Source()).Window(window.Spec{}, window.Sum()).Run(); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestRunEndToEndMatchesOracleWithBigSlack(t *testing.T) {
	c := gen.Sensor(20000, 41)
	rep, err := New(c.Source()).
		Handle(buffer.NewKSlack(1<<40)).
		Window(testSpec, window.Sum()).
		KeepInput().
		Run()
	if err != nil {
		t.Fatal(err)
	}
	q := rep.Quality(testSpec, window.Sum(), metrics.CompareOpts{SkipEmptyOracle: true})
	if q.MaxRelErr != 0 {
		t.Fatalf("huge slack should be exact: %v", q)
	}
	if rep.Disorder.OutOfOrder == 0 {
		t.Fatal("disorder not measured")
	}
}

func TestRunDefaultsToZeroHandler(t *testing.T) {
	c := gen.Sensor(5000, 43)
	rep, err := New(c.Source()).Window(testSpec, window.Count()).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Handler.Inserted != 5000 {
		t.Fatalf("handler saw %d tuples", rep.Handler.Inserted)
	}
	if rep.Op.LateTuples == 0 {
		t.Fatal("zero handler on disordered stream should produce late tuples")
	}
}

func TestRunWithRefinement(t *testing.T) {
	c := gen.Sensor(20000, 44)
	rep, err := New(c.Source()).
		Handle(buffer.Zero()).
		Window(testSpec, window.Sum()).
		Refine(60 * stream.Second).
		Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Op.Refinements == 0 {
		t.Fatal("no refinements emitted despite disorder")
	}
	var sawRefinement bool
	for _, r := range rep.Results {
		if r.Refinement {
			sawRefinement = true
			break
		}
	}
	if !sawRefinement {
		t.Fatal("refinement results missing from output")
	}
}

func TestRunWithAQKSlack(t *testing.T) {
	c := gen.Sensor(30000, 45)
	h := core.NewAQKSlack(core.Config{Theta: 0.02, Spec: testSpec, Agg: window.Sum()})
	rep, err := New(c.Source()).Handle(h).Window(testSpec, window.Sum()).KeepInput().Run()
	if err != nil {
		t.Fatal(err)
	}
	q := rep.Quality(testSpec, window.Sum(), metrics.CompareOpts{
		Theta: 0.02, SkipWarmup: 10, SkipEmptyOracle: true,
	})
	if q.MeanRelErr > 0.02 {
		t.Fatalf("AQ pipeline mean error %v above theta", q.MeanRelErr)
	}
	if rep.Latency(10).Mean <= 0 {
		t.Fatal("latency not measured")
	}
}

func TestRunWithHeartbeatSource(t *testing.T) {
	c := gen.Config{N: 1000, Interval: 100, Seed: 46} // sparse stream
	src := stream.NewWithHeartbeats(c.Source(), 50)
	rep, err := New(src).Handle(buffer.NewKSlack(10)).Window(window.Spec{Size: 1000, Slide: 1000}, window.Count()).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) == 0 {
		t.Fatal("no results with heartbeat source")
	}
}

func TestRunConcurrentMatchesRun(t *testing.T) {
	mk := func() *AggQuery {
		return New(gen.Sensor(20000, 47).Source()).
			Handle(buffer.NewKSlack(2*stream.Second)).
			Window(testSpec, window.Sum()).
			KeepInput()
	}
	syncRep, err := mk().Run()
	if err != nil {
		t.Fatal(err)
	}
	var streamed []window.Result
	concRep, err := mk().RunConcurrent(context.Background(), func(r window.Result) {
		streamed = append(streamed, r)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(syncRep.Results) != len(concRep.Results) {
		t.Fatalf("result counts differ: %d vs %d", len(syncRep.Results), len(concRep.Results))
	}
	for i := range syncRep.Results {
		if syncRep.Results[i] != concRep.Results[i] {
			t.Fatalf("result %d differs:\nsync: %+v\nconc: %+v", i, syncRep.Results[i], concRep.Results[i])
		}
	}
	if len(streamed) != len(concRep.Results) {
		t.Fatalf("sink saw %d results, report has %d", len(streamed), len(concRep.Results))
	}
	if syncRep.Disorder != concRep.Disorder {
		t.Fatalf("disorder stats differ: %+v vs %+v", syncRep.Disorder, concRep.Disorder)
	}
}

func TestRunConcurrentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancel before start: must return promptly with ctx error
	_, err := New(gen.Sensor(100000, 48).Source()).
		Window(testSpec, window.Sum()).
		RunConcurrent(ctx, nil)
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}
}

func TestRunConcurrentValidates(t *testing.T) {
	if _, err := New(nil).Window(testSpec, window.Sum()).RunConcurrent(context.Background(), nil); err == nil {
		t.Fatal("nil source accepted")
	}
}

func TestJoinQueryRun(t *testing.T) {
	mkSide := func(src uint8, seed uint64) []stream.Tuple {
		c := gen.Config{N: 3000, Interval: 10, Poisson: true, Seed: seed}
		ts := c.Events()
		for i := range ts {
			ts[i].Src = src
		}
		return ts
	}
	left := mkSide(0, 100)
	right := mkSide(1, 200)
	leftArr := append([]stream.Tuple{}, left...)
	rightArr := append([]stream.Tuple{}, right...)
	stream.SortByArrival(leftArr)
	stream.SortByArrival(rightArr)

	cfg := join.Config{Band: 100}
	rep, err := NewJoin(stream.FromTuples(leftArr), stream.FromTuples(rightArr), cfg).
		Handle(buffer.NewKSlack(1 << 30)).
		KeepInput().
		Run()
	if err != nil {
		t.Fatal(err)
	}
	q := rep.Quality(cfg)
	if q.Recall != 1 || q.Precision != 1 {
		t.Fatalf("fully buffered join not exact: %v", q)
	}
	if rep.Join.Emitted == 0 {
		t.Fatal("join emitted nothing")
	}
}

func TestJoinQueryValidates(t *testing.T) {
	cfg := join.Config{Band: 10}
	if _, err := NewJoin(nil, nil, cfg).Run(); err == nil {
		t.Fatal("nil sources accepted")
	}
	src := gen.Config{N: 1, Seed: 1}.Source()
	if _, err := NewJoin(src, src, join.Config{}).Run(); err == nil {
		t.Fatal("zero band accepted")
	}
}

// TestFeedbackHandlerMatchesStage: an adaptive handler reads its stage's
// reports by its quality model, so the loss model is refused behind a join
// and the recall model behind a window.
func TestFeedbackHandlerMatchesStage(t *testing.T) {
	cfg := join.Config{Band: 10}
	src := gen.Config{N: 1, Seed: 1}.Source()
	loss := core.NewAQKSlack(core.Config{Theta: 0.01, Spec: testSpec, Agg: window.Sum()})
	if _, err := NewJoin(src, src, cfg).Handle(loss).Run(); err == nil {
		t.Error("a join query took the loss model's handler")
	}
	recall := core.NewAQJoin(core.JoinConfig{Recall: 0.99, Band: cfg.Band})
	if _, err := NewExec(New(nil).Handle(recall).Window(testSpec, window.Sum()), nil); err == nil {
		t.Error("a window query took the recall model's handler")
	}
}

// wrappedFeedback is a handler wrapper that embeds the feedback protocol, as
// a test harness's release hasher does: the model check sees through it.
type wrappedFeedback struct{ buffer.FeedbackHandler }

func TestFeedbackHandlerMatchesStageThroughWrapper(t *testing.T) {
	cfg := join.Config{Band: 10}
	src := gen.Config{N: 1, Seed: 1}.Source()
	loss := wrappedFeedback{core.NewAQKSlack(core.Config{Theta: 0.01, Spec: testSpec, Agg: window.Sum()})}
	if _, err := NewJoin(src, src, cfg).Handle(loss).Run(); err == nil {
		t.Error("a join query took a wrapped loss-model handler")
	}
	recall := wrappedFeedback{core.NewAQJoin(core.JoinConfig{Recall: 0.99, Band: cfg.Band})}
	if _, err := NewJoin(src, src, cfg).Handle(recall).Run(); err != nil {
		t.Errorf("a join query refused a wrapped recall-model handler: %v", err)
	}
	if _, err := NewExec(New(nil).Handle(recall).Window(testSpec, window.Sum()), nil); err == nil {
		t.Error("a window query took a wrapped recall-model handler")
	}
}
