package cq

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/resilience"
	"repro/internal/stream"
	"repro/internal/window"
)

// groupedBatches are the transport batch sizes every grouped driver check
// runs at: per-tuple, awkward, the default, and larger than the ring batch
// the window stage ever sees whole.
var groupedBatches = []int{1, 7, 64, 256}

// assertKeyedReportsEqual checks the byte-identical-output contract
// between the synchronous grouped driver and another one: result sequence,
// handler stats, operator stats, disorder stats and the PreFlush boundary
// must all match.
func assertKeyedReportsEqual(t *testing.T, label string, sync, conc *AggReport) {
	t.Helper()
	if len(sync.Keyed) != len(conc.Keyed) {
		t.Fatalf("%s: %d keyed results, Run produced %d", label, len(conc.Keyed), len(sync.Keyed))
	}
	for i := range sync.Keyed {
		if sync.Keyed[i] != conc.Keyed[i] {
			t.Fatalf("%s: keyed result %d = %+v, Run produced %+v", label, i, conc.Keyed[i], sync.Keyed[i])
		}
	}
	if conc.PreFlush != sync.PreFlush {
		t.Fatalf("%s: PreFlush = %d, Run produced %d", label, conc.PreFlush, sync.PreFlush)
	}
	if conc.Handler != sync.Handler {
		t.Fatalf("%s: handler stats %+v, Run produced %+v", label, conc.Handler, sync.Handler)
	}
	if conc.Op != sync.Op {
		t.Fatalf("%s: op stats %+v, Run produced %+v", label, conc.Op, sync.Op)
	}
	if conc.Disorder != sync.Disorder {
		t.Fatalf("%s: disorder %+v, Run produced %+v", label, conc.Disorder, sync.Disorder)
	}
	if !reflect.DeepEqual(sync.Input, conc.Input) {
		t.Fatalf("%s: recorded inputs differ", label)
	}
}

// assertGroupedDriversMatchRun holds every other way of driving a grouped
// query to the synchronous Run over the same items, at one batch size.
// build returns the query over src (nil: sourceless, for NewExec) with a
// fresh handler each time. Three drivers:
//
//   - RunConcurrent, report retained: the report equals Run's field for
//     field — what the shard merger used to have to reconstruct.
//   - RunConcurrent with a sink and DiscardReport: the sink sees the Results
//     embedded in Run's Keyed sequence, in Run's order, Keyed stays empty and
//     PreFlush is still counted.
//   - A stepped NewExec fed batch items per Step: the same report again,
//     with nothing but the caller's goroutine involved.
func assertGroupedDriversMatchRun(t *testing.T, build func(src stream.Source) *AggQuery, items []stream.Item, batch int) {
	t.Helper()
	label := fmt.Sprintf("%s/batch=%d", t.Name(), batch)
	syncRep, err := build(stream.NewSliceSource(items)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(syncRep.Keyed) == 0 || syncRep.PreFlush == 0 || syncRep.PreFlush == len(syncRep.Keyed) {
		t.Fatalf("%s: workload must emit by progress and by flush: %d results, PreFlush %d",
			label, len(syncRep.Keyed), syncRep.PreFlush)
	}

	concRep, err := build(stream.NewSliceSource(items)).Batch(batch).RunConcurrent(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	assertKeyedReportsEqual(t, label+"/RunConcurrent", syncRep, concRep)

	var plain []window.Result
	discRep, err := build(stream.NewSliceSource(items)).Batch(batch).
		DiscardReport().
		RunConcurrent(context.Background(), func(r window.Result) { plain = append(plain, r) })
	if err != nil {
		t.Fatal(err)
	}
	if len(discRep.Keyed) != 0 || len(discRep.Results) != 0 {
		t.Fatalf("%s: DiscardReport retained %d keyed / %d plain results", label, len(discRep.Keyed), len(discRep.Results))
	}
	if discRep.PreFlush != syncRep.PreFlush {
		t.Fatalf("%s: DiscardReport PreFlush = %d, Run produced %d", label, discRep.PreFlush, syncRep.PreFlush)
	}
	for i, r := range plain {
		if r != syncRep.Keyed[i].Result {
			t.Fatalf("%s: plain sink result %d = %+v, want the embedded %+v", label, i, r, syncRep.Keyed[i].Result)
		}
	}
	if len(plain) != len(syncRep.Keyed) {
		t.Fatalf("%s: plain sink saw %d results, want %d", label, len(plain), len(syncRep.Keyed))
	}

	x, err := NewExec(build(nil), nil)
	if err != nil {
		t.Fatalf("%s: NewExec: %v", label, err)
	}
	for at := 0; at < len(items); at += batch {
		chunk := items[at:min(at+batch, len(items))]
		x.noteInput(chunk)
		if err := x.Step(chunk); err != nil {
			t.Fatal(err)
		}
	}
	if err := x.Finish(); err != nil {
		t.Fatal(err)
	}
	assertKeyedReportsEqual(t, label+"/NewExec", syncRep, x.Report())
}

// TestShardedRunConcurrentMatchesRun is the core equivalence gate for
// grouped execution: across seeds and batch sizes, RunConcurrent and a
// stepped NewExec must reproduce the synchronous Run bit for bit. (This test
// and the two after it keep the names they had when RunConcurrent ran
// grouped queries on a sharded window stage with a k-way merger: what they
// hold is what that merger had to guarantee, and now comes from there being
// one keyed stage.) The fixed K-slack handler exercises the batched insert
// fast path.
func TestShardedRunConcurrentMatchesRun(t *testing.T) {
	for _, seed := range []uint64{61, 62, 63} {
		cfg := gen.Sensor(12000, seed)
		cfg.NumKeys = 64
		items := collect(cfg.Source())
		build := func(src stream.Source) *AggQuery {
			return New(src).
				Handle(buffer.NewKSlack(200)).
				Window(testSpec, window.Sum()).
				GroupBy().KeepInput()
		}
		for _, batch := range groupedBatches {
			assertGroupedDriversMatchRun(t, build, items, batch)
		}
	}
}

// TestShardedMatchesRunAQHandler runs the same equivalence check with the
// adaptive handler, which has no InsertBatch specialization — covering
// the generic per-item adapter — and with the RefineLate policy so late
// refinements go through every driver too.
func TestShardedMatchesRunAQHandler(t *testing.T) {
	cfg := gen.Sensor(15000, 71)
	cfg.NumKeys = 48
	items := collect(cfg.Source())
	spec := testSpec
	agg := window.Sum()
	build := func(src stream.Source) *AggQuery {
		h := core.NewAQKSlack(core.Config{Theta: 0.05, Spec: spec, Agg: agg})
		return New(src).
			Handle(h).
			Window(spec, agg).
			Refine(2 * spec.Size).
			GroupBy().KeepInput()
	}
	for _, batch := range groupedBatches {
		assertGroupedDriversMatchRun(t, build, items, batch)
	}
}

// TestShardedMatchesRunUnderChaos drains one chaos-faulted source
// (duplicates + delay-spike bursts, no errors — Run aborts on source
// errors) into a fixed item sequence and feeds the identical sequence to
// every driver.
func TestShardedMatchesRunUnderChaos(t *testing.T) {
	cfg := gen.Sensor(10000, 81)
	cfg.NumKeys = 32
	faulted := resilience.NewFaultSource(
		stream.AsErrSource(cfg.Source()),
		resilience.Chaos{Seed: 82, DupRate: 0.02, SpikeRate: 0.002, SpikeLen: 32},
	)
	var items []stream.Item
	for {
		it, ok, err := faulted.NextErr()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		items = append(items, it)
	}
	build := func(src stream.Source) *AggQuery {
		return New(src).
			Handle(buffer.NewKSlack(300)).
			Window(testSpec, window.Sum()).
			GroupBy().KeepInput()
	}
	for _, batch := range groupedBatches {
		assertGroupedDriversMatchRun(t, build, items, batch)
	}
}

// TestBatchedUngroupedMatchesRun pins the batched transport's equivalence
// for plain (non-grouped) queries at awkward batch sizes.
func TestBatchedUngroupedMatchesRun(t *testing.T) {
	tuples := gen.Sensor(20000, 91).Arrivals()
	syncRep, err := New(stream.FromTuples(tuples)).
		Handle(buffer.NewKSlack(250)).
		Window(testSpec, window.Avg()).
		Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 3, 64, 1024} {
		concRep, err := New(stream.FromTuples(tuples)).
			Handle(buffer.NewKSlack(250)).
			Window(testSpec, window.Avg()).
			Batch(batch).
			RunConcurrent(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(concRep.Results) != len(syncRep.Results) {
			t.Fatalf("batch=%d: %d results, Run produced %d", batch, len(concRep.Results), len(syncRep.Results))
		}
		for i := range syncRep.Results {
			if concRep.Results[i] != syncRep.Results[i] {
				t.Fatalf("batch=%d: result %d = %+v, Run produced %+v",
					batch, i, concRep.Results[i], syncRep.Results[i])
			}
		}
		if concRep.PreFlush != syncRep.PreFlush || concRep.Handler != syncRep.Handler {
			t.Fatalf("batch=%d: report metadata diverged", batch)
		}
	}
}

// TestDiscardReport checks the long-running-deployment mode: sinks see
// every result while the report retains none.
func TestDiscardReport(t *testing.T) {
	cfg := gen.Sensor(8000, 95)
	cfg.NumKeys = 16
	tuples := cfg.Arrivals()

	full, err := New(stream.FromTuples(tuples)).
		Handle(buffer.NewKSlack(200)).
		Window(testSpec, window.Sum()).
		GroupBy().
		RunConcurrent(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}

	var sunk []window.Result
	disc, err := New(stream.FromTuples(tuples)).
		Handle(buffer.NewKSlack(200)).
		Window(testSpec, window.Sum()).
		GroupBy().
		DiscardReport().
		RunConcurrent(context.Background(), func(r window.Result) { sunk = append(sunk, r) })
	if err != nil {
		t.Fatal(err)
	}
	if len(disc.Keyed) != 0 || disc.PreFlush != full.PreFlush {
		t.Fatalf("DiscardReport: keyed=%d (want 0) preFlush=%d (still counted: want %d)",
			len(disc.Keyed), disc.PreFlush, full.PreFlush)
	}
	if len(sunk) != len(full.Keyed) {
		t.Fatalf("sink saw %d results, full report has %d", len(sunk), len(full.Keyed))
	}
	for i := range sunk {
		if sunk[i] != full.Keyed[i].Result {
			t.Fatalf("sunk result %d = %+v, want %+v", i, sunk[i], full.Keyed[i].Result)
		}
	}
}
