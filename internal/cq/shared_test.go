package cq_test

// Shared-source fan-out tests: M queries over one broadcast ring must
// produce byte-identical reports to the same queries run standalone over
// the same item sequence — the tentpole contract of internal/fanout.
// These are the engine-level checks; the DST sweep (internal/dst) runs
// the same oracle across the whole randomized plan matrix.

import (
	"context"
	"errors"
	"testing"

	"repro/internal/buffer"
	"repro/internal/cq"
	"repro/internal/fanout"
	"repro/internal/gen"
	"repro/internal/oracle"
	"repro/internal/stream"
	"repro/internal/window"
)

var sharedSpec = window.Spec{Size: 10 * stream.Second, Slide: stream.Second}

// materialize drains a source into a fixed item slice so every run —
// standalone reference and fan-out subscribers — consumes the identical
// sequence.
func materialize(src stream.Source) []stream.Item {
	var items []stream.Item
	for {
		it, ok := src.Next()
		if !ok {
			return items
		}
		items = append(items, it)
	}
}

func sliceErrSource(items []stream.Item) stream.ErrSource {
	return stream.AsErrSource(stream.NewSliceSource(items))
}

func TestRunSharedByteIdenticalToStandalone(t *testing.T) {
	items := materialize(stream.NewWithHeartbeats(gen.Sensor(20000, 71).Source(), stream.Second))

	// build yields the query shape; src is nil for ring subscribers and a
	// private slice source for the standalone reference.
	build := func(src stream.ErrSource) *cq.AggQuery {
		return cq.NewFallible(src).
			Handle(buffer.NewKSlack(500)).
			Window(sharedSpec, window.Sum()).
			KeepInput()
	}
	ref, err := build(sliceErrSource(items)).RunConcurrent(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}

	const m = 8
	queries := make([]*cq.AggQuery, m)
	for i := range queries {
		queries[i] = build(nil)
	}
	reps, err := cq.RunShared(context.Background(), sliceErrSource(items),
		cq.SharedOpts{Ring: 8, Batch: 64}, queries...)
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reps {
		if err := oracle.Equivalence(ref, rep); err != nil {
			t.Fatalf("subscriber %d diverged from standalone run: %v", i, err)
		}
	}
}

func TestRunSharedMixedShapesEachMatchStandalone(t *testing.T) {
	items := materialize(gen.Config{N: 15000, Interval: 10, NumKeys: 16, Seed: 72}.Source())

	shapes := []struct {
		name  string
		build func(src stream.ErrSource) *cq.AggQuery
	}{
		{"sum-kslack", func(src stream.ErrSource) *cq.AggQuery {
			return cq.NewFallible(src).Handle(buffer.NewKSlack(300)).
				Window(sharedSpec, window.Sum()).KeepInput()
		}},
		{"median-fiba-refine", func(src stream.ErrSource) *cq.AggQuery {
			return cq.NewFallible(src).Handle(buffer.NewKSlack(800)).
				Window(sharedSpec, window.Median()).
				Refine(20 * stream.Second).KeepInput()
		}},
		{"grouped", func(src stream.ErrSource) *cq.AggQuery {
			return cq.NewFallible(src).Handle(buffer.NewMaxSlack()).
				Window(sharedSpec, window.Count()).GroupBy().KeepInput()
		}},
		{"count-kslack", func(src stream.ErrSource) *cq.AggQuery { // shares sum-kslack's step core
			return cq.NewFallible(src).Handle(buffer.NewKSlack(300)).
				Window(sharedSpec, window.Count()).KeepInput()
		}},
	}

	refs := make([]*cq.AggReport, len(shapes))
	for i, s := range shapes {
		rep, err := s.build(sliceErrSource(items)).RunConcurrent(context.Background(), nil)
		if err != nil {
			t.Fatalf("%s standalone: %v", s.name, err)
		}
		refs[i] = rep
	}

	queries := make([]*cq.AggQuery, len(shapes))
	for i, s := range shapes {
		queries[i] = s.build(nil)
	}
	reps, err := cq.RunShared(context.Background(), sliceErrSource(items),
		cq.SharedOpts{Ring: 16, Batch: 32}, queries...)
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reps {
		if err := oracle.Equivalence(refs[i], rep); err != nil {
			t.Fatalf("%s diverged under fan-out: %v", shapes[i].name, err)
		}
	}
}

func TestRunSharedShedOldestKeepsAccountingInvariant(t *testing.T) {
	items := materialize(gen.Sensor(30000, 73).Source())
	total := int64(0)
	for _, it := range items {
		if !it.Heartbeat {
			total++
		}
	}

	queries := []*cq.AggQuery{
		cq.NewFallible(nil).Handle(buffer.NewKSlack(500)).Window(sharedSpec, window.Sum()),
		cq.NewFallible(nil).Handle(buffer.NewKSlack(500)).Window(sharedSpec, window.Sum()),
	}
	reps, err := cq.RunShared(context.Background(), sliceErrSource(items),
		cq.SharedOpts{Ring: 2, Batch: 16, Policy: fanout.ShedOldest}, queries...)
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reps {
		if rep.Handler.Inserted+rep.Shed != total {
			t.Fatalf("subscriber %d: inserted %d + shed %d != published %d",
				i, rep.Handler.Inserted, rep.Shed, total)
		}
		if rep.Handler.Shed != rep.Shed {
			t.Fatalf("subscriber %d: Handler.Shed %d != Shed %d", i, rep.Handler.Shed, rep.Shed)
		}
	}
}

// errFuncSource adapts a function to the stream.ErrSource interface.
type errFuncSource func() (stream.Item, bool, error)

func (f errFuncSource) NextErr() (stream.Item, bool, error) { return f() }

func TestRunSharedProducerFailureReachesEveryQuery(t *testing.T) {
	cause := errors.New("socket reset")
	n := 0
	src := errFuncSource(func() (stream.Item, bool, error) {
		if n >= 1000 {
			return stream.Item{}, false, cause
		}
		n++
		ts := stream.Time(n * 10)
		return stream.DataItem(stream.Tuple{TS: ts, Arrival: ts, Seq: uint64(n - 1)}), true, nil
	})
	queries := []*cq.AggQuery{
		cq.NewFallible(nil).Window(sharedSpec, window.Sum()),
		cq.NewFallible(nil).Window(sharedSpec, window.Sum()),
	}
	_, err := cq.RunShared(context.Background(), src, cq.SharedOpts{}, queries...)
	if !errors.Is(err, cause) {
		t.Fatalf("err = %v, want the producer's %v", err, cause)
	}
}

func TestSharedValidation(t *testing.T) {
	items := materialize(gen.Sensor(100, 74).Source())

	// A query with its own source cannot join RunShared.
	qs := cq.NewFallible(sliceErrSource(items)).Window(sharedSpec, window.Sum())
	if _, err := cq.RunShared(context.Background(), sliceErrSource(items), cq.SharedOpts{}, qs); err == nil {
		t.Fatal("query with a source accepted by RunShared")
	}

	// A query that fails validation is left as built: fix it (and keep its
	// peers, which RunShared had already subscribed) and the same objects
	// run.
	good := cq.NewFallible(nil).Window(sharedSpec, window.Sum())
	bad := cq.NewFallible(nil).Handle(buffer.NewKSlack(100)) // no Window stage
	if _, err := cq.RunShared(context.Background(), sliceErrSource(items), cq.SharedOpts{}, good, bad); err == nil {
		t.Fatal("query without a Window stage accepted by RunShared")
	}
	bad.Window(sharedSpec, window.Sum())
	if _, err := cq.RunShared(context.Background(), sliceErrSource(items), cq.SharedOpts{}, good, bad); err != nil {
		t.Fatalf("queries of a refused RunShared cannot be run again: %v", err)
	}

	// A query shaped for the ring has no source of its own to run
	// synchronously.
	if _, err := cq.NewFallible(nil).Window(sharedSpec, window.Sum()).Run(); err == nil {
		t.Fatal("sourceless query ran synchronously")
	}
}

func TestRunSharedSinkSeesEveryResult(t *testing.T) {
	items := materialize(gen.Sensor(5000, 76).Source())
	counts := make([]int64, 2)
	queries := []*cq.AggQuery{
		cq.NewFallible(nil).Handle(buffer.NewKSlack(200)).Window(sharedSpec, window.Sum()),
		cq.NewFallible(nil).Handle(buffer.NewKSlack(200)).Window(sharedSpec, window.Sum()),
	}
	// The sink is called serially per query (from that query's window
	// stage), so counts[i] needs no extra synchronization.
	reps, err := cq.RunShared(context.Background(), sliceErrSource(items),
		cq.SharedOpts{Sink: func(i int, r window.Result) { counts[i]++ }}, queries...)
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reps {
		if counts[i] == 0 {
			t.Fatalf("sink %d saw no results", i)
		}
		if counts[i] != int64(len(rep.Results)) {
			t.Fatalf("sink %d saw %d results, report retained %d", i, counts[i], len(rep.Results))
		}
	}
}

// TestNonMonotoneArrivalsSameOnEveryDriver is the regression test for the
// arrival clock the executor fork hid: Arrival is client-supplied on the
// wire, so a sender may go backwards. The clock must not — and must not on
// any driver: Run (which used to assign the arrival), RunConcurrent and
// the RunShared replicas all report byte-identical results.
func TestNonMonotoneArrivalsSameOnEveryDriver(t *testing.T) {
	items := materialize(stream.NewWithHeartbeats(gen.Sensor(8000, 73).Source(), stream.Second))
	backwards := 0
	for i := range items {
		if !items[i].Heartbeat && i%7 == 3 {
			items[i].Tuple.Arrival -= 700 // behind its predecessors' arrivals
			backwards++
		}
	}
	if backwards == 0 {
		t.Fatal("transcript has no backward arrival; the test proves nothing")
	}
	build := func(src stream.ErrSource) *cq.AggQuery {
		return cq.NewFallible(src).Handle(buffer.NewKSlack(400)).
			Window(sharedSpec, window.Sum()).KeepInput()
	}
	sync, err := build(sliceErrSource(items)).Run()
	if err != nil {
		t.Fatal(err)
	}
	conc, err := build(sliceErrSource(items)).Batch(37).RunConcurrent(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := oracle.Equivalence(sync, conc); err != nil {
		t.Fatalf("RunConcurrent: %v", err)
	}
	reps, err := cq.RunShared(context.Background(), sliceErrSource(items),
		cq.SharedOpts{Ring: 8, Batch: 53}, build(nil), build(nil))
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reps {
		if err := oracle.Equivalence(sync, rep); err != nil {
			t.Fatalf("RunShared replica %d: %v", i, err)
		}
	}
}
