package dst

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/obs"
	"repro/internal/obs/tracez"
	"repro/internal/oracle"
	"repro/internal/resilience"
	"repro/internal/stream"
)

// infiniteK is a slack no finite workload outlasts: the handler holds
// every tuple until Flush, which releases in exact (TS, Seq) order.
const infiniteK stream.Time = 1 << 40

// Outcome is the result of executing a Plan through the harness and the
// differential oracle. Failures lists every contract that did not hold;
// an empty list means the plan passed.
type Outcome struct {
	Plan         Plan
	Items        int    // transcript length (data + heartbeats)
	ItemsDigest  string // sha256 of the event transcript
	OutputDigest string // sha256 of the synchronous run's output
	TraceDigest  string // tracez.Digest of the synchronous run's event trace
	Sync         *cq.AggReport
	Conc         *cq.AggReport
	Failures     []string
}

// fail records a failed check.
func (o *Outcome) fail(format string, args ...any) {
	o.Failures = append(o.Failures, fmt.Sprintf(format, args...))
}

// handler materializes a fresh disorder handler for one run. Handlers are
// stateful, so every execution path needs its own.
func (p Plan) handler() buffer.Handler {
	switch p.Handler.Kind {
	case "maxslack":
		return buffer.NewMaxSlack()
	case "aq":
		return p.aqHandler(p.Handler.Theta)
	default:
		return buffer.NewKSlack(p.Handler.K)
	}
}

// aqHandler builds the adaptive handler at the given quality bound.
func (p Plan) aqHandler(theta float64) buffer.Handler {
	return core.NewAQKSlack(core.Config{Theta: theta, Spec: p.spec(), Agg: p.agg()})
}

// build assembles a query over src with the given handler and the plan's
// shape. Every variant goes through here so sync, concurrent and
// metamorphic runs execute the same query modulo the dimension under
// test.
func (p Plan) build(src stream.ErrSource, h buffer.Handler) *cq.AggQuery {
	q := cq.NewFallible(src).Handle(h).Window(p.spec(), p.agg()).KeepInput()
	if p.grouped() {
		q.GroupBy()
	}
	if p.Refine > 0 {
		q.Refine(p.Refine)
	}
	if p.Batch > 0 {
		q.Batch(p.Batch)
	}
	return q
}

// faultChain builds the generator → heartbeats → chaos source stack on a
// fresh scheduler. Both the transcript drain and the concurrent run use
// it, so they see identical fault schedules (the chaos RNG is seeded, and
// injected errors never consume an item).
func (p Plan) faultChain(sched *Scheduler) *resilience.FaultSource {
	var src stream.Source = p.genConfig().Source()
	if p.Heartbeat > 0 {
		src = stream.NewWithHeartbeats(src, p.Heartbeat)
	}
	return resilience.NewFaultSource(stream.AsErrSource(src), p.chaos()).WithClock(sched)
}

// transcript materializes the exact item sequence the pipeline will
// consume: the chaos source drained with inline retry on injected errors
// (errors leave the position untouched, so the delivered sequence equals
// what the retrying source of runConcurrent and runShared sees for the
// same seed).
func (p Plan) transcript() []stream.Item {
	fault := p.faultChain(NewScheduler())
	var items []stream.Item
	for {
		it, ok, err := fault.NextErr()
		if err != nil {
			continue // injected transient fault: same position, retry
		}
		if !ok {
			return items
		}
		items = append(items, it)
	}
}

// runSync executes the plan's query synchronously over a fixed
// transcript, optionally mirroring it into a flight recorder (tr may be
// nil): the trace-determinism contract hashes the recorded events.
func (p Plan) runSync(items []stream.Item, h buffer.Handler, tr *tracez.Tracer) (*cq.AggReport, error) {
	q := p.build(stream.AsErrSource(stream.NewSliceSource(items)), h)
	if tr != nil {
		q.Trace(tr)
	}
	return q.Run()
}

// runConcurrent executes the plan's query through the goroutine pipeline
// against a fresh chaos chain under virtual time.
func (p Plan) runConcurrent() (*cq.AggReport, error) {
	return p.build(p.source(), p.handler()).RunConcurrent(context.Background(), nil)
}

// runShared executes Fanout replica queries of the plan's shape over one
// shared broadcast ring (see internal/fanout), fed by a fresh chaos chain
// under virtual time, so every subscriber sees the identical delivered
// sequence the standalone runs consumed.
func (p Plan) runShared() ([]*cq.AggReport, error) {
	queries := make([]*cq.AggQuery, p.Fanout)
	for i := range queries {
		queries[i] = p.build(nil, p.handler())
	}
	return cq.RunShared(context.Background(), p.source(), cq.SharedOpts{Batch: p.Batch}, queries...)
}

// source is a fresh chaos chain under a virtual clock of its own, carrying
// the resilience stack: pacing, then retry on injected errors.
func (p Plan) source() stream.ErrSource {
	sched := NewScheduler()
	var src stream.ErrSource = &pacedSource{src: p.faultChain(sched), sched: sched}
	if p.Chaos.ErrRate > 0 {
		// Injected errors must never terminate the run: a generous attempt
		// budget, deterministic jitter, no breaker (a breaker's fail-fast
		// window would drop items and break transcript equality).
		src = resilience.NewRetryingSource(context.Background(), src,
			resilience.Retry{MaxAttempts: 1000, Seed: p.Seed ^ 0x5bf03635, Clock: sched})
	}
	return src
}

// Execute runs one plan through every execution path and the differential
// oracle. The returned error reports harness failures (a query that fails
// validation); contract violations land in Outcome.Failures.
func Execute(p Plan) (*Outcome, error) {
	o := &Outcome{Plan: p}

	items := p.transcript()
	o.Items = len(items)
	o.ItemsDigest = DigestItems(items)

	rec := tracez.NewRecorder(1 << 15)
	sync, err := p.runSync(items, p.handler(), tracez.New(rec, "dst"))
	if err != nil {
		return nil, fmt.Errorf("dst: sync run: %w", err)
	}
	o.Sync = sync
	o.OutputDigest = DigestOutput(sync)
	o.TraceDigest = tracez.Digest(rec.Events())

	conc, err := p.runConcurrent()
	if err != nil {
		return nil, fmt.Errorf("dst: concurrent run: %w", err)
	}
	o.Conc = conc

	// Contract 1: the concurrent pipeline reproduces the synchronous
	// executor byte for byte.
	if err := oracle.Equivalence(sync, conc); err != nil {
		o.fail("equivalence: %v", err)
	}

	// Contract 1c: every replica of the query, subscribed to one shared
	// broadcast ring draining the same chaos chain, reproduces the
	// synchronous run byte for byte — fan-out adds transport, never
	// semantics. Block subscriptions make this exact (no sheds).
	if p.Fanout > 1 {
		reps, err := p.runShared()
		if err != nil {
			return nil, fmt.Errorf("dst: shared fan-out run: %w", err)
		}
		for i, rep := range reps {
			if err := oracle.Equivalence(sync, rep); err != nil {
				o.fail("fanout[%d of %d]: %v", i, p.Fanout, err)
			}
		}
	}

	// Contract 1d: the wire protocol is transparent — the transcript
	// replayed through netstream framing over a net.Pipe decodes to the
	// byte-identical item sequence, and the plan's query over the decoded
	// stream reproduces the synchronous run exactly.
	if p.Net {
		decoded, err := replayNetstream(items)
		if err != nil {
			return nil, err
		}
		if got := DigestItems(decoded); got != o.ItemsDigest {
			o.fail("net: decoded transcript digest %s != %s (%d vs %d items)",
				got, o.ItemsDigest, len(decoded), len(items))
		} else {
			netSync, err := p.runSync(decoded, p.handler(), nil)
			if err != nil {
				return nil, fmt.Errorf("dst: net replay run: %w", err)
			}
			if err := oracle.SameOutput(sync, netSync); err != nil {
				o.fail("net: %v", err)
			}
		}
		// …and wire provenance survives a reconnect replay: the same
		// transcript framed as B-marked batches across a connection cut
		// — the redial resending the boundary batch with its identical
		// mark — deduplicates by batch id back to the byte-identical
		// sequence (mark mutations and unmarked items fail inside the
		// replay helper).
		redecoded, err := replayNetstreamReconnect(items, 64)
		if err != nil {
			o.fail("net-reconnect: %v", err)
		} else if got := DigestItems(redecoded); got != o.ItemsDigest {
			o.fail("net-reconnect: deduplicated transcript digest %s != %s (%d vs %d items)",
				got, o.ItemsDigest, len(redecoded), len(items))
		}
	}

	// Contract 1e: the observability plane is passive. The identical
	// synchronous run with the query instrumented into a registry — the
	// engine's per-query set, cq.Telemetry, which aqserver exports — and
	// an obs.History hammering Sample on that registry from another
	// goroutine must reproduce both the output digest and the trace
	// digest byte for byte — sampling reads instruments, it never
	// perturbs execution.
	obsRec := tracez.NewRecorder(1 << 15)
	reg := obs.NewRegistry()
	obsQuery := p.build(stream.AsErrSource(stream.NewSliceSource(items)), p.handler()).
		Trace(tracez.New(obsRec, "dst")).Instrument(cq.NewTelemetry(reg, "dst", p.spec()))
	hist := obs.NewHistory(reg, obs.HistoryOptions{Step: time.Millisecond, Retention: time.Second})
	stopSampling := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		for {
			select {
			case <-stopSampling:
				return
			default:
				hist.Sample()
			}
		}
	}()
	obsSync, err := obsQuery.Run()
	close(stopSampling)
	<-samplerDone
	if err != nil {
		return nil, fmt.Errorf("dst: instrumented sync run: %w", err)
	}
	if got := DigestOutput(obsSync); got != o.OutputDigest {
		o.fail("obs-passivity: output digest %s != %s under history sampling", got, o.OutputDigest)
	}
	if got := tracez.Digest(obsRec.Events()); got != o.TraceDigest {
		o.fail("obs-passivity: trace digest %s != %s under history sampling", got, o.TraceDigest)
	}

	// Contract 2: realized quality within θ (adaptive plans, grouped ones
	// per (key, window): the controller measures what the query delivers).
	if p.qualityChecked() {
		if err := oracle.QualityContract(sync, p.spec(), p.agg(), p.grouped(),
			oracle.ContractOpts{Theta: p.Handler.Theta}); err != nil {
			o.fail("quality: %v", err)
		}
	}

	// Metamorphic relation 1: infinite slack ⇒ exact results.
	infK, err := p.runSync(items, buffer.NewKSlack(infiniteK), nil)
	if err != nil {
		return nil, fmt.Errorf("dst: infinite-K run: %w", err)
	}
	if err := oracle.ExactUnderInfiniteK(infK, p.spec(), p.agg(), p.grouped()); err != nil {
		o.fail("infinite-K: %v", err)
	}

	// Metamorphic relation 2: permuting tuples that share (TS, Arrival)
	// must not change the output. The workload is quantized onto a coarse
	// grain first so such ties actually exist, and runs on a fixed-slack
	// handler — the adaptive handler's quantile sketch is insertion-order
	// sensitive by design, so its slack choice (not its correctness) may
	// differ under permutation.
	if err := p.checkPermutation(o, items); err != nil {
		return nil, err
	}

	// Metamorphic relation 3: doubling θ must not increase emission
	// latency — a looser quality bound licenses less slack, never more.
	if p.qualityChecked() {
		relaxed, err := p.runSync(items, p.aqHandler(2*p.Handler.Theta), nil)
		if err != nil {
			return nil, fmt.Errorf("dst: relaxed-θ run: %w", err)
		}
		const warmup = 20
		tol := float64(p.Slide) // the controller adapts K in window-slide-sized steps
		if err := oracle.LatencyNotWorse(sync.Latency(warmup), relaxed.Latency(warmup), tol); err != nil {
			o.fail("θ-monotonicity: %v", err)
		}
	}

	return o, nil
}

// checkPermutation runs metamorphic relation 2 on a tie-rich projection
// of the transcript.
func (p Plan) checkPermutation(o *Outcome, items []stream.Item) error {
	// The relation demands bit-identical output, so it needs an exactly
	// commutative accumulator: with integer payloads sum/count/min/max
	// qualify, but avg (Welford's running mean, numerically stable by
	// design) is float-order-sensitive — remap it to sum. RefineLate is
	// excluded too: refinements are progressive per-late-tuple
	// corrections, so the *intermediate* refined values (and, for grouped
	// queries, the per-key refinement emission order) legitimately track
	// arrival order within a slot.
	if p.Agg == "avg" {
		p.Agg = "sum"
	}
	p.Refine = 0
	tieItems := quantize(items, 16*p.Interval)
	h := p.Handler.K
	if h <= 0 {
		h = 500
	}
	base, err := p.runSync(tieItems, buffer.NewKSlack(h), nil)
	if err != nil {
		return fmt.Errorf("dst: permutation base run: %w", err)
	}
	perm, err := p.runSync(oracle.PermuteEqualArrival(tieItems, p.Seed^0xa5a5a5a5), buffer.NewKSlack(h), nil)
	if err != nil {
		return fmt.Errorf("dst: permutation run: %w", err)
	}
	if err := oracle.SameOutput(base, perm); err != nil {
		o.fail("permutation: %v", err)
	}
	return nil
}

// quantize projects the transcript's data tuples onto a coarse time grain
// — timestamps and arrivals snap down to multiples of grain, arrival
// clamped to never precede the event — and re-sorts by (Arrival, TS, Seq)
// so tuples sharing a (TS, Arrival) slot sit adjacent. The result is an
// arrival-ordered stream dense in exact ties, the input the permutation
// relation needs. Heartbeats are dropped: quantization moves arrivals
// backwards, which could strand a heartbeat's watermark ahead of later
// tuples.
func quantize(items []stream.Item, grain stream.Time) []stream.Item {
	if grain <= 0 {
		grain = 1
	}
	var out []stream.Item
	for _, it := range items {
		if it.Heartbeat {
			continue
		}
		t := it.Tuple
		t.TS -= t.TS % grain
		t.Arrival -= t.Arrival % grain
		if t.Arrival < t.TS {
			t.Arrival = t.TS
		}
		out = append(out, stream.DataItem(t))
	}
	// Key participates in the sort so tuples sharing a whole
	// (Arrival, TS, Key) slot — the unit PermuteEqualArrival shuffles —
	// sit adjacent.
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i].Tuple, out[j].Tuple
		if a.Arrival != b.Arrival {
			return a.Arrival < b.Arrival
		}
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		return a.Seq < b.Seq
	})
	return out
}
