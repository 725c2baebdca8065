package cq

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"repro/internal/buffer"
	"repro/internal/fanout"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/window"
)

// TestTelemetryMatchesReport is the cross-check between the live metrics
// and the post-hoc report: under Run and under RunConcurrent alike — the
// step core updates the instruments, not the driver — every stage counter
// must equal the corresponding AggReport/handler total, and the handler's
// gauges its final slack and depth. If these drift apart, either the
// dashboard lies or the report does. The handler is a MAX-slack over a
// bursty feed, so the slack moves and stragglers occur.
func TestTelemetryMatchesReport(t *testing.T) {
	tuples := gen.SensorBursty(20000, 11).Arrivals()
	spec := window.Spec{Size: 10 * stream.Second, Slide: stream.Second}
	for _, driver := range []string{"Run", "RunConcurrent"} {
		t.Run(driver, func(t *testing.T) {
			reg := obs.NewRegistry()
			telem := NewTelemetry(reg, "obs-test", spec)
			handler := buffer.NewMaxSlack()
			q := New(stream.FromTuples(tuples)).Handle(handler).Window(spec, window.Sum()).Instrument(telem)
			var rep *AggReport
			var err error
			if driver == "Run" {
				rep, err = q.Run()
			} else {
				rep, err = q.RunConcurrent(context.Background(), nil)
			}
			if err != nil {
				t.Fatal(err)
			}

			st := rep.Handler
			if st.Stragglers == 0 || handler.K() == 0 {
				t.Fatalf("stragglers %d, final K %d: the comparison proves less than it should", st.Stragglers, handler.K())
			}
			for _, c := range []struct {
				name      string
				got, want float64
			}{
				{"source stage counter (accepted data tuples)", telem.SourceIn.Value(), float64(rep.Disorder.N)},
				{"disorder stage counter (released tuples)", telem.Released.Value(), float64(st.Released)},
				{"stragglers counter", telem.Stragglers.Value(), float64(st.Stragglers)},
				{"window stage counter (emitted results)", telem.Results.Value(), float64(len(rep.Results))},
				{"shed counter", telem.Shed.Value(), float64(rep.Shed)},
				{"K gauge", telem.K.Value(), float64(handler.K())},
				{"depth gauge", telem.Depth.Value(), float64(handler.Len())},
				// Latency histogram covers exactly the progress-emitted
				// results, matching the PreFlush split the latency metrics use.
				{"latency histogram count (PreFlush results)", float64(telem.EmitLatency.Count()), float64(rep.PreFlush)},
			} {
				if c.got != c.want {
					t.Errorf("%s = %g, want %g", c.name, c.got, c.want)
				}
			}
			// The whole pipeline must be visible in one scrape; the ring's
			// gauges only where there is a ring.
			var out strings.Builder
			if err := reg.WritePrometheus(&out); err != nil {
				t.Fatal(err)
			}
			series := []string{
				`aq_stage_tuples_total{query="obs-test",stage="source"}`,
				`aq_stage_tuples_total{query="obs-test",stage="disorder"}`,
				`aq_stage_tuples_total{query="obs-test",stage="window"}`,
				`aq_buffer_stragglers_total{query="obs-test"}`,
				`aq_buffer_k_ms{query="obs-test"}`,
				`aq_buffer_depth{query="obs-test"}`,
				`aq_emit_latency_ms_count{query="obs-test"}`,
			}
			if driver == "RunConcurrent" {
				series = append(series, `aq_queue_depth{query="obs-test",queue="fanout"}`)
			}
			for _, s := range series {
				if !strings.Contains(out.String(), s) {
					t.Errorf("exposition missing %s", s)
				}
			}
		})
	}
}

// TestTelemetryShedCounting checks the shed counter against the report
// under the ring's ShedOldest policy with a tiny ring.
func TestTelemetryShedCounting(t *testing.T) {
	tuples := gen.Sensor(20000, 7).Arrivals()
	reg := obs.NewRegistry()
	telem := NewTelemetry(reg, "shed-test", window.Spec{Size: 10 * stream.Second, Slide: stream.Second})

	// A two-batch ring races the producer against the core; how many
	// tuples are lapped is timing-dependent, but the invariant under test
	// is timing-free: live counter == report count, and accepted ==
	// published − shed.
	reps, err := RunShared(context.Background(), stream.AsErrSource(stream.FromTuples(tuples)),
		SharedOpts{Ring: 2, Batch: 8, Policy: fanout.ShedOldest},
		New(nil).Handle(buffer.NewKSlack(0)).
			Window(window.Spec{Size: 10 * stream.Second, Slide: stream.Second}, window.Sum()).
			Instrument(telem))
	if err != nil {
		t.Fatal(err)
	}
	rep := reps[0]
	if got, want := telem.Shed.Value(), float64(rep.Shed); got != want {
		t.Errorf("shed counter = %g, want %g", got, want)
	}
	if got, want := telem.SourceIn.Value(), float64(len(tuples))-float64(rep.Shed); got != want {
		t.Errorf("source counter = %g, want %g (accepted = published − shed)", got, want)
	}
}

// TestSaturatedPipelineShipsFullBatches is the other half of the ring's
// latency policy (fanout's TestPumpShipsPartialBatchToStarvedConsumer is
// the first): partial batches are for a starved core only. With a source
// that is never the bottleneck the core is always behind, so the batches
// it steps are full ones: aq_batch_size_tuples{queue="ingest"} has its
// median in the bucket of the configured batch size.
func TestSaturatedPipelineShipsFullBatches(t *testing.T) {
	const batch = 64
	tuples := gen.Sensor(50000, 17).Arrivals()
	reg := obs.NewRegistry()
	telem := NewTelemetry(reg, "sat", window.Spec{Size: 10 * stream.Second, Slide: stream.Second})
	_, err := New(stream.FromTuples(tuples)).
		Handle(buffer.NewKSlack(500)).
		Window(window.Spec{Size: 10 * stream.Second, Slide: stream.Second}, window.Sum()).
		Batch(batch).Instrument(telem).
		RunConcurrent(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	// Buckets are powers of two; le="32" counts every batch smaller than
	// a full one.
	var below, total uint64
	for _, line := range strings.Split(out.String(), "\n") {
		if !strings.HasPrefix(line, "aq_batch_size_tuples_") || !strings.Contains(line, `queue="ingest"`) {
			continue
		}
		v, err := strconv.ParseUint(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		switch {
		case strings.HasPrefix(line, "aq_batch_size_tuples_count"):
			total = v
		case strings.Contains(line, `le="32"`):
			below = v
		default:
			continue
		}
		if err != nil {
			t.Fatalf("unparsable sample %q: %v", line, err)
		}
	}
	if total == 0 || total != telem.IngestBatch.Count() {
		t.Fatalf("exposition counts %d batches, the histogram %d", total, telem.IngestBatch.Count())
	}
	if 2*below >= total {
		t.Fatalf("%d of %d batches were partial: the median batch is not a full one", below, total)
	}
}
