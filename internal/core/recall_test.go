package core

import (
	"strings"
	"testing"

	"repro/internal/buffer"
	"repro/internal/delay"
	"repro/internal/gen"
	"repro/internal/join"
	"repro/internal/metrics"
	"repro/internal/stream"
)

// twoStreams builds an interleaved, arrival-ordered pair of streams with
// Src tags, suitable for a band join.
func twoStreams(n int, seed uint64) (all, left, right []stream.Tuple) {
	mk := func(src uint8, s uint64) []stream.Tuple {
		c := gen.Config{
			N: n, Interval: 10, Poisson: true,
			Delays: delay.ParetoWithMean(400, 1.8),
			Seed:   s,
		}
		ts := c.Events()
		for i := range ts {
			ts[i].Src = src
		}
		return ts
	}
	left = mk(0, seed)
	right = mk(1, seed+1000)
	all = append(append([]stream.Tuple{}, left...), right...)
	stream.SortByArrival(all)
	return all, left, right
}

// runJoinPipeline drives tagged tuples through a disorder handler into a
// join operator by Insert alone: an adaptive handler runs open loop, as R6b's
// three-way join drives it.
func runJoinPipeline(h buffer.Handler, jop *join.Join, tuples []stream.Tuple) []join.Result {
	var rel []stream.Tuple
	var out []join.Result
	var now stream.Time
	for _, tp := range tuples {
		now = tp.Arrival
		rel = h.Insert(stream.DataItem(tp), rel[:0])
		for _, r := range rel {
			out = jop.Insert(join.Tagged{Tuple: r, Side: join.Side(r.Src)}, now, out)
		}
	}
	rel = h.Flush(rel[:0])
	for _, r := range rel {
		out = jop.Insert(join.Tagged{Tuple: r, Side: join.Side(r.Src)}, now, out)
	}
	return out
}

func TestAQJoinPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"recall=0":  func() { NewAQJoin(JoinConfig{Recall: 0, Band: 10}) },
		"recall=1":  func() { NewAQJoin(JoinConfig{Recall: 1, Band: 10}) },
		"band zero": func() { NewAQJoin(JoinConfig{Recall: 0.9, Band: 0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestAQJoinDisorderHurtsWithoutBuffering(t *testing.T) {
	// Sanity check that the workload is in the interesting regime: with
	// no disorder handling, recall is clearly below the targets used in
	// the tests below.
	all, left, right := twoStreams(8000, 33)
	cfg := join.Config{Band: 500}
	jop := join.New(cfg)
	emitted := join.PairSet(runJoinPipeline(buffer.Zero(), jop, all))
	oracle := join.OraclePairs(cfg, left, right)
	rep := metrics.PairMetrics(emitted, oracle)
	if rep.Recall > 0.97 {
		t.Fatalf("zero-handling recall %v too high to exercise adaptation", rep.Recall)
	}
}

func TestAQJoinTraceAndString(t *testing.T) {
	all, _, _ := twoStreams(6000, 37)
	cfg := join.Config{Band: 500, RetainFor: 10 * stream.Second}
	aq := NewAQJoin(JoinConfig{Recall: 0.95, Band: cfg.Band})
	runJoinPipeline(aq, join.New(cfg), all)
	if len(aq.Trace()) == 0 {
		t.Fatal("no adaptations")
	}
	for i, s := range aq.Trace() {
		if s.K < 0 || s.K > aq.kMax() {
			t.Fatalf("trace[%d] K out of bounds: %+v", i, s)
		}
		if s.EstErr < 0 || s.EstErr > 1 {
			t.Fatalf("trace[%d] predicted miss rate out of [0,1]: %+v", i, s)
		}
	}
	if got, want := aq.String(), "aq-join(recall=0.95 K="; !strings.HasPrefix(got, want) {
		t.Fatalf("String() = %q, want prefix %q", got, want)
	}
	if aq.Recall() != 0.95 || NewAQKSlack(defaultCfg(0.01)).Recall() != 0 {
		t.Fatal("Recall does not tell the recall model from the loss model")
	}
}

// TwoStreams exports twoStreams to the external test package
// (recall_exec_test.go, which imports cq).
var TwoStreams = twoStreams
