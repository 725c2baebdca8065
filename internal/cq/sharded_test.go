package cq

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/resilience"
	"repro/internal/stream"
	"repro/internal/window"
)

// assertKeyedReportsEqual checks the byte-identical-output contract
// between the synchronous grouped executor and the sharded concurrent
// one: result sequence, handler stats, operator stats, disorder stats and
// the PreFlush boundary must all match.
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

// TestShardedRunConcurrentMatchesRun is the core equivalence gate for the
// sharded grouped executor: across seeds, shard counts and batch sizes,
// RunConcurrent must reproduce the synchronous Run bit for bit. The fixed
// K-slack handler exercises the batched insert fast path.
func TestShardedRunConcurrentMatchesRun(t *testing.T) {
	if runtime.NumCPU() == 1 {
		// Output equivalence is schedule-independent, so the assertion
		// still means something on one core — but the shard workers run
		// interleaved, not parallel, so this host exercises none of the
		// cross-core races the test exists to catch. Log it so a green
		// run on such a host is not mistaken for concurrency coverage.
		t.Log("single-CPU host: shard workers interleave instead of running in parallel; equivalence checked without true concurrency")
	}
	for _, seed := range []uint64{61, 62, 63} {
		cfg := gen.Sensor(12000, seed)
		cfg.NumKeys = 64
		tuples := cfg.Arrivals()

		syncRep, err := New(stream.FromTuples(tuples)).
			Handle(buffer.NewKSlack(200)).
			Window(testSpec, window.Sum()).
			GroupBy().KeepInput().
			Run()
		if err != nil {
			t.Fatal(err)
		}

		for _, shards := range []int{1, 3, 4} {
			for _, batch := range []int{1, 32} {
				concRep, err := New(stream.FromTuples(tuples)).
					Handle(buffer.NewKSlack(200)).
					Window(testSpec, window.Sum()).
					GroupBy().KeepInput().
					Shards(shards).Batch(batch).
					RunConcurrent(context.Background(), nil)
				if err != nil {
					t.Fatal(err)
				}
				assertKeyedReportsEqual(t, t.Name(), syncRep, concRep)
			}
		}
	}
}

// TestShardedMatchesRunAQHandler runs the same equivalence check with the
// adaptive handler, which has no InsertBatch specialization — covering
// the generic per-item adapter — and with the RefineLate policy so late
// refinements cross the shard merge too.
func TestShardedMatchesRunAQHandler(t *testing.T) {
	cfg := gen.Sensor(15000, 71)
	cfg.NumKeys = 48
	tuples := cfg.Arrivals()
	spec := testSpec
	agg := window.Sum()

	build := func() *AggQuery {
		h := core.NewAQKSlack(core.Config{Theta: 0.05, Spec: spec, Agg: agg})
		return New(stream.FromTuples(tuples)).
			Handle(h).
			Window(spec, agg).
			Refine(2 * spec.Size).
			GroupBy().KeepInput()
	}

	syncRep, err := build().Run()
	if err != nil {
		t.Fatal(err)
	}
	concRep, err := build().Shards(4).Batch(16).RunConcurrent(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	assertKeyedReportsEqual(t, t.Name(), syncRep, concRep)
}

// TestShardedMatchesRunUnderChaos drains one chaos-faulted source
// (duplicates + delay-spike bursts, no errors — Run aborts on source
// errors) into a fixed item sequence and feeds the identical sequence to
// both executors.
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

	syncRep, err := New(stream.NewSliceSource(items)).
		Handle(buffer.NewKSlack(300)).
		Window(testSpec, window.Sum()).
		GroupBy().KeepInput().
		Run()
	if err != nil {
		t.Fatal(err)
	}
	concRep, err := New(stream.NewSliceSource(items)).
		Handle(buffer.NewKSlack(300)).
		Window(testSpec, window.Sum()).
		GroupBy().KeepInput().
		Shards(4).Batch(32).
		RunConcurrent(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	assertKeyedReportsEqual(t, t.Name(), syncRep, concRep)
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
		GroupBy().Shards(4).
		RunConcurrent(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}

	var sunk []window.KeyedResult
	disc, err := New(stream.FromTuples(tuples)).
		Handle(buffer.NewKSlack(200)).
		Window(testSpec, window.Sum()).
		GroupBy().Shards(4).
		SinkKeyed(func(kr window.KeyedResult) { sunk = append(sunk, kr) }).
		DiscardReport().
		RunConcurrent(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(disc.Keyed) != 0 || disc.PreFlush != 0 {
		t.Fatalf("report retained results despite DiscardReport: keyed=%d preFlush=%d",
			len(disc.Keyed), disc.PreFlush)
	}
	if len(sunk) != len(full.Keyed) {
		t.Fatalf("sink saw %d results, full report has %d", len(sunk), len(full.Keyed))
	}
	for i := range sunk {
		if sunk[i] != full.Keyed[i] {
			t.Fatalf("sunk result %d = %+v, want %+v", i, sunk[i], full.Keyed[i])
		}
	}
}

// TestShardOfBalance sanity-checks the hash partitioner on sequential
// keys — each shard of 4 should own roughly a quarter of 1024 keys.
func TestShardOfBalance(t *testing.T) {
	counts := make([]int, 4)
	for key := uint64(0); key < 1024; key++ {
		s := shardOf(key, 4)
		if s < 0 || s >= 4 {
			t.Fatalf("shardOf(%d, 4) = %d", key, s)
		}
		counts[s]++
	}
	for s, c := range counts {
		if c < 180 || c > 330 {
			t.Fatalf("shard %d owns %d of 1024 sequential keys; partitioning is skewed: %v", s, c, counts)
		}
	}
}
