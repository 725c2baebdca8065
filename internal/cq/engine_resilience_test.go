package cq

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/fanout"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/resilience"
	"repro/internal/stream"
	"repro/internal/window"
)

// errFuncSource adapts a function to the stream.ErrSource interface.
type errFuncSource func() (stream.Item, bool, error)

func (f errFuncSource) NextErr() (stream.Item, bool, error) { return f() }

// panicHandler panics on the (after+1)-th Insert.
type panicHandler struct {
	buffer.Handler
	after int
	n     int
}

func (p *panicHandler) Insert(it stream.Item, out []stream.Tuple) []stream.Tuple {
	p.n++
	if p.n > p.after {
		panic("poisoned tuple")
	}
	return p.Handler.Insert(it, out)
}

// runWithDeadline runs the query and fails the test if it does not return
// within the deadline — the regression the panic isolation exists for.
func runWithDeadline(t *testing.T, d time.Duration, q *AggQuery, sink func(window.Result)) (*AggReport, error) {
	t.Helper()
	type outcome struct {
		rep *AggReport
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		rep, err := q.RunConcurrent(context.Background(), sink)
		ch <- outcome{rep, err}
	}()
	select {
	case o := <-ch:
		return o.rep, o.err
	case <-time.After(d):
		t.Fatalf("RunConcurrent did not return within %v", d)
		return nil, nil
	}
}

func TestRunConcurrentStagePanics(t *testing.T) {
	mkTuples := func() []stream.Tuple { return gen.Sensor(5000, 3).Arrivals() }
	cases := []struct {
		name      string
		wantStage string
		build     func() *AggQuery
		sink      func(window.Result)
	}{
		{
			name:      "source stage panic",
			wantStage: "source stage panicked",
			build: func() *AggQuery {
				n := 0
				src := stream.FuncSource(func() (stream.Item, bool) {
					if n >= 100 {
						panic("source exploded")
					}
					t := stream.Tuple{TS: stream.Time(n), Arrival: stream.Time(n), Seq: uint64(n)}
					n++
					return stream.DataItem(t), true
				})
				return New(src).Window(testSpec, window.Sum())
			},
		},
		{
			name:      "disorder stage panic",
			wantStage: "disorder stage panicked",
			build: func() *AggQuery {
				h := &panicHandler{Handler: buffer.NewKSlack(100), after: 50}
				return New(stream.FromTuples(mkTuples())).Handle(h).Window(testSpec, window.Sum())
			},
		},
		{
			name:      "window stage panic",
			wantStage: "window stage panicked",
			build: func() *AggQuery {
				return New(stream.FromTuples(mkTuples())).Window(testSpec, window.Sum())
			},
			sink: func(window.Result) { panic("sink exploded") },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := runWithDeadline(t, time.Second, tc.build(), tc.sink)
			if err == nil {
				t.Fatalf("no error (rep=%v)", rep)
			}
			if !strings.Contains(err.Error(), tc.wantStage) {
				t.Fatalf("error %q does not name the stage (%q)", err, tc.wantStage)
			}
		})
	}
}

// TestRunConcurrentBlockingSinkCancellation is the regression test for the
// old drain: on cancellation the executor blocked on the window stage's
// done channel, which a sink that never returns wedged forever.
func TestRunConcurrentBlockingSinkCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	entered := make(chan struct{})
	var once sync.Once
	sink := func(window.Result) {
		once.Do(func() { close(entered) })
		select {} // block forever; the executor must not wait for us
	}
	go func() {
		<-entered
		cancel()
	}()

	errc := make(chan error, 1)
	go func() {
		_, err := New(stream.FromTuples(gen.Sensor(50000, 5).Arrivals())).
			Handle(buffer.NewKSlack(100*stream.Millisecond)).
			Window(testSpec, window.Sum()).
			RunConcurrent(ctx, sink)
		errc <- err
	}()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("cancellation deadlocked on the blocking sink")
	}
}

func TestRunConcurrentSourceError(t *testing.T) {
	boom := errors.New("upstream gone")
	mkSrc := func(transientFails int) stream.ErrSource {
		n, fails := 0, 0
		return errFuncSource(func() (stream.Item, bool, error) {
			if n >= 200 {
				if transientFails < 0 {
					return stream.Item{}, false, boom // permanent failure mid-stream
				}
				return stream.Item{}, false, nil
			}
			if n == 100 && fails < transientFails {
				fails++
				return stream.Item{}, false, boom
			}
			t := stream.Tuple{TS: stream.Time(n), Arrival: stream.Time(n), Seq: uint64(n), Value: 1}
			n++
			return stream.DataItem(t), true, nil
		})
	}

	t.Run("unretried error aborts", func(t *testing.T) {
		_, err := NewFallible(mkSrc(-1)).Window(testSpec, window.Sum()).
			RunConcurrent(context.Background(), nil)
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want wrapped boom", err)
		}
	})
	t.Run("retry rides through transients", func(t *testing.T) {
		rep, err := NewFallible(mkSrc(3)).Window(testSpec, window.Sum()).
			Retry(resilience.Retry{MaxAttempts: 5, BaseDelay: time.Microsecond}).
			RunConcurrent(context.Background(), nil)
		if err != nil {
			t.Fatalf("retry did not recover: %v", err)
		}
		if rep.Retries != 3 {
			t.Fatalf("Retries = %d, want 3", rep.Retries)
		}
		if got := rep.Handler.Inserted; got != 200 {
			t.Fatalf("Inserted = %d, want 200 (no tuple lost or duplicated)", got)
		}
	})
	t.Run("retry budget exhausts", func(t *testing.T) {
		_, err := NewFallible(mkSrc(-1)).Window(testSpec, window.Sum()).
			Retry(resilience.Retry{MaxAttempts: 3, BaseDelay: time.Microsecond}).
			RunConcurrent(context.Background(), nil)
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want wrapped boom", err)
		}
	})
	t.Run("sync Run surfaces the error unretried", func(t *testing.T) {
		_, err := NewFallible(mkSrc(-1)).Window(testSpec, window.Sum()).Run()
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want wrapped boom", err)
		}
	})
}

// TestChaosPipeline is the acceptance chaos run: errors + stalls +
// duplicates + delay spikes through FaultSource at a fixed seed, with
// shedding enabled — the ring's ShedOldest, the one slow-consumer policy —
// and a consumer wedged for the duration of the feed. The pipeline must
// terminate, count its retries and sheds, and its realized error against
// the stream the source delivered must be honestly worse than the clean
// run's.
func TestChaosPipeline(t *testing.T) {
	tuples := gen.Sensor(30000, 7).Arrivals()
	spec := testSpec
	agg := window.Sum()
	opts := metrics.CompareOpts{SkipWarmup: 2, SkipEmptyOracle: true}

	clean, err := New(stream.FromTuples(tuples)).
		Handle(buffer.NewKSlack(200*stream.Millisecond)).
		Window(spec, agg).KeepInput().
		RunConcurrent(context.Background(), nil)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	cleanQ := clean.Quality(spec, agg, opts)

	fs := resilience.NewFaultSource(stream.AsErrSource(stream.FromTuples(tuples)), resilience.Chaos{
		Seed:      42,
		ErrorRate: 0.002,
		StallRate: 0.0005, StallDur: 50 * time.Microsecond,
		DupRate:   0.002,
		SpikeRate: 0.0005, SpikeLen: 16,
	})
	// eof closes when the fault source is exhausted; the sink blocks on it
	// so the whole feed runs against a wedged consumer and the shedding
	// policy, not backpressure, must absorb the overload. delivered is the
	// stream as the source handed it over: what quality is owed against.
	eof := make(chan struct{})
	var eofOnce sync.Once
	var delivered []stream.Tuple
	src := resilience.NewRetryingSource(context.Background(), errFuncSource(func() (stream.Item, bool, error) {
		it, ok, err := fs.NextErr()
		if err == nil && !ok {
			eofOnce.Do(func() { close(eof) })
		}
		if err == nil && ok && !it.Heartbeat {
			delivered = append(delivered, it.Tuple)
		}
		return it, ok, err
	}), resilience.Retry{MaxAttempts: 8, BaseDelay: time.Microsecond, MaxDelay: 100 * time.Microsecond, Seed: 42})
	var firstResult sync.Once
	sink := func(int, window.Result) { firstResult.Do(func() { <-eof }) }

	reps, err := RunShared(context.Background(), src,
		SharedOpts{Ring: 2, Batch: 4, Policy: fanout.ShedOldest, Sink: sink},
		New(nil).Handle(buffer.NewKSlack(200*stream.Millisecond)).Window(spec, agg).KeepInput())
	if err != nil {
		t.Fatalf("chaos run did not terminate cleanly: %v", err)
	}
	rep := reps[0]

	st := fs.Stats()
	if st.Errors == 0 || st.Duplicates == 0 || st.Stalls == 0 || st.DelaySpikes == 0 {
		t.Fatalf("chaos config did not exercise every fault: %v", st)
	}
	if src.Retries() == 0 {
		t.Fatalf("injected %d source errors but counted no retries", st.Errors)
	}
	if rep.Shed == 0 {
		t.Fatal("wedged consumer + ShedOldest produced no sheds")
	}
	if rep.Handler.Shed != rep.Shed {
		t.Fatalf("Handler.Shed = %d, report Shed = %d", rep.Handler.Shed, rep.Shed)
	}
	if got := int64(len(rep.Input)) + rep.Shed; got != int64(len(delivered)) {
		t.Fatalf("input %d + shed %d != delivered %d", len(rep.Input), rep.Shed, len(delivered))
	}

	// Lapped tuples never reached the query's intake, so its own Input does
	// not know them: the oracle is the delivered stream.
	chaosQ := metrics.Compare(rep.Results, window.Oracle(spec, agg, delivered), opts)
	if !(chaosQ.MeanRelErr > cleanQ.MeanRelErr) {
		t.Fatalf("shed-degraded realized error %.6f does not exceed clean %.6f — shedding is being hidden",
			chaosQ.MeanRelErr, cleanQ.MeanRelErr)
	}
	t.Logf("clean meanErr=%.5f chaos meanErr=%.5f shed=%d retries=%d faults=%v",
		cleanQ.MeanRelErr, chaosQ.MeanRelErr, rep.Shed, src.Retries(), st)
}

// TestDriversLeakNoGoroutines: whatever way a concurrent driver returns —
// clean end, terminal source error, cancellation, a panic in the source or
// in a sink (which must end the run at once, endless source or not) — the
// goroutines it started (source pump, core stages) are gone soon after.
// Cancellation does not join the core stage, so the check polls. And
// while it runs, a grouped query holds no more goroutines than a plain one:
// its window stage is inside the step.
func TestDriversLeakNoGoroutines(t *testing.T) {
	tuples := gen.Sensor(5000, 13).Arrivals()
	boom := errors.New("upstream gone")
	failing := func() stream.ErrSource { // fails mid-batch, mid-stream
		n := 0
		return errFuncSource(func() (stream.Item, bool, error) {
			if n == 1234 {
				return stream.Item{}, false, boom
			}
			n++
			return stream.DataItem(tuples[n-1]), true, nil
		})
	}
	endless := func() stream.ErrSource {
		n := 0
		return errFuncSource(func() (stream.Item, bool, error) {
			n++
			ts := stream.Time(n * 10)
			return stream.DataItem(stream.Tuple{TS: ts, Arrival: ts, Seq: uint64(n)}), true, nil
		})
	}
	panicking := func() stream.ErrSource { // panics mid-batch, mid-stream
		n := 0
		return errFuncSource(func() (stream.Item, bool, error) {
			if n == 1234 {
				panic("source exploded")
			}
			n++
			return stream.DataItem(tuples[n-1]), true, nil
		})
	}
	// promptly runs a driver that must return within a second, and turns the
	// error naming the stage that panicked into errStagePanic, which a case
	// can want.
	errStagePanic := errors.New("stage panicked")
	promptly := func(stage string, run func() error) error {
		errc := make(chan error, 1)
		go func() { errc <- run() }()
		select {
		case err := <-errc:
			if err != nil && strings.Contains(err.Error(), "cq: "+stage+" stage panicked") {
				return errStagePanic
			}
			return err
		case <-time.After(time.Second):
			return errors.New("the driver did not return within 1s")
		}
	}
	query := func(src stream.ErrSource, grouped bool) *AggQuery {
		q := NewFallible(src).Handle(buffer.NewKSlack(100)).Window(testSpec, window.Sum())
		if grouped {
			q.GroupBy()
		}
		return q
	}
	// cancelOnResult cancels the run as soon as it has emitted something.
	cancelOnResult := func() (context.Context, func(window.Result)) {
		ctx, cancel := context.WithCancel(context.Background())
		return ctx, func(window.Result) { cancel() }
	}

	cases := []struct {
		name string
		run  func() error
		want error
	}{
		{"RunConcurrent success", func() error {
			_, err := query(stream.AsErrSource(stream.FromTuples(tuples)), false).RunConcurrent(context.Background(), nil)
			return err
		}, nil},
		{"RunConcurrent grouped success", func() error {
			_, err := query(stream.AsErrSource(stream.FromTuples(tuples)), true).RunConcurrent(context.Background(), nil)
			return err
		}, nil},
		{"RunConcurrent source error", func() error {
			_, err := query(failing(), false).RunConcurrent(context.Background(), nil)
			return err
		}, boom},
		{"RunConcurrent grouped source error", func() error {
			_, err := query(failing(), true).RunConcurrent(context.Background(), nil)
			return err
		}, boom},
		{"RunConcurrent cancel", func() error {
			ctx, sink := cancelOnResult()
			_, err := query(endless(), false).RunConcurrent(ctx, sink)
			return err
		}, context.Canceled},
		{"RunConcurrent grouped cancel", func() error {
			ctx, sink := cancelOnResult()
			_, err := query(endless(), true).RunConcurrent(ctx, sink)
			return err
		}, context.Canceled},
		{"RunShared success", func() error {
			_, err := RunShared(context.Background(), stream.AsErrSource(stream.FromTuples(tuples)), SharedOpts{},
				query(nil, false), query(nil, true))
			return err
		}, nil},
		{"RunShared source error", func() error {
			_, err := RunShared(context.Background(), failing(), SharedOpts{}, query(nil, false), query(nil, true))
			return err
		}, boom},
		{"RunShared cancel", func() error {
			ctx, sink := cancelOnResult()
			_, err := RunShared(ctx, endless(), SharedOpts{Sink: func(_ int, r window.Result) { sink(r) }},
				query(nil, false), query(nil, true))
			return err
		}, context.Canceled},
		{"RunShared sink panic", func() error {
			return promptly(stageWindow, func() error {
				_, err := RunShared(context.Background(), endless(),
					SharedOpts{Sink: func(int, window.Result) { panic("sink exploded") }}, query(nil, false))
				return err
			})
		}, errStagePanic},
		{"RunShared source panic", func() error {
			return promptly(stageSource, func() error {
				_, err := RunShared(context.Background(), panicking(), SharedOpts{}, query(nil, false), query(nil, true))
				return err
			})
		}, errStagePanic},
	}
	settle := func(t *testing.T, base int) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d goroutines before the run, %d still there 2s after it returned:\n%s",
					base, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(time.Millisecond)
		}
	}
	// held is how many goroutines a RunConcurrent over an endless source
	// has added by the time its first result reaches the sink: the largest
	// of three readings, since an unjoined core stage of an earlier
	// cancelled run may still be in the baseline and exit before the
	// reading.
	held := func(t *testing.T, grouped bool) int {
		t.Helper()
		most := 0
		for range 3 {
			base, n := runtime.NumGoroutine(), 0
			ctx, cancel := context.WithCancel(context.Background())
			_, err := query(endless(), grouped).RunConcurrent(ctx, func(window.Result) {
				if n == 0 {
					n = runtime.NumGoroutine() - base
				}
				cancel()
			})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want cancellation", err)
			}
			settle(t, base)
			most = max(most, n)
		}
		return most
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			if err := tc.run(); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			settle(t, base)
			if strings.Contains(tc.name, "grouped") {
				if plain, grouped := held(t, false), held(t, true); grouped > plain {
					t.Fatalf("a running grouped query holds %d goroutines, a plain one %d", grouped, plain)
				}
			}
		})
	}
}
