package fanout

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/stream"
)

// errFuncSource adapts a function to the stream.ErrSource interface.
type errFuncSource func() (stream.Item, bool, error)

func (f errFuncSource) NextErr() (stream.Item, bool, error) { return f() }

// mkItems builds n data items with dense seq/ts.
func mkItems(start, n int) []stream.Item {
	out := make([]stream.Item, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, stream.DataItem(stream.Tuple{
			TS: stream.Time(start + i), Arrival: stream.Time(start + i),
			Seq: uint64(start + i), Value: float64(start + i),
		}))
	}
	return out
}

// drain consumes a sub batch by batch, returning the delivered data values
// and the terminal error.
func drain(ctx context.Context, s *Sub) ([]float64, error) {
	var vals []float64
	for {
		items, seq, ok, err := s.NextBatch(ctx)
		if err != nil || !ok {
			return vals, err
		}
		for _, it := range items {
			if !it.Heartbeat {
				vals = append(vals, it.Tuple.Value)
			}
		}
		s.Release(seq)
	}
}

func TestBlockSubscribersSeeEverything(t *testing.T) {
	const total, batch = 8192, 64
	b := New(Options{Ring: 8, BatchCap: batch})
	const m = 4
	subs := make([]*Sub, m)
	for i := range subs {
		subs[i] = b.Subscribe(fmt.Sprintf("q%d", i), Block)
	}

	var wg sync.WaitGroup
	got := make([][]float64, m)
	errs := make([]error, m)
	for i := range subs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = drain(context.Background(), subs[i])
		}(i)
	}

	for off := 0; off < total; off += batch {
		items := append(b.Get(), mkItems(off, batch)...)
		if err := b.Publish(context.Background(), items); err != nil {
			t.Fatalf("publish: %v", err)
		}
	}
	b.Close()
	wg.Wait()

	for i := range subs {
		if errs[i] != nil {
			t.Fatalf("sub %d: %v", i, errs[i])
		}
		if len(got[i]) != total {
			t.Fatalf("sub %d: got %d of %d tuples", i, len(got[i]), total)
		}
		for j, v := range got[i] {
			if v != float64(j) {
				t.Fatalf("sub %d: item %d = %g, want %d", i, j, v, j)
			}
		}
		if subs[i].Shed() != 0 {
			t.Fatalf("sub %d: Block consumer shed %d", i, subs[i].Shed())
		}
	}
	if b.Published() != total/batch {
		t.Fatalf("published = %d, want %d", b.Published(), total/batch)
	}
	if b.Dropped() != 0 {
		t.Fatalf("dropped = %d, want 0", b.Dropped())
	}
}

func TestShedOldestAccountingIsExact(t *testing.T) {
	const total, batch = 4096, 16
	b := New(Options{Ring: 4, BatchCap: batch})
	fast := b.Subscribe("fast", Block)
	slow := b.Subscribe("slow", ShedOldest)

	var wg sync.WaitGroup
	var fastGot, slowGot []float64
	var slowErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		fastGot, _ = drain(context.Background(), fast)
	}()
	// The slow consumer releases batches only every few acquisitions by
	// consuming through NextBatch with a stall: simplest is to drain it
	// normally but give the producer a head start per batch — with a
	// 4-slot ring and a goroutine scheduled at the runtime's whim, laps
	// are effectively guaranteed at this volume. The invariant under
	// test is exactness, not a specific shed count.
	go func() {
		defer wg.Done()
		ctx := context.Background()
		for {
			items, seq, ok, err := slow.NextBatch(ctx)
			if err != nil {
				slowErr = err
				return
			}
			if !ok {
				return
			}
			for _, it := range items {
				if !it.Heartbeat {
					slowGot = append(slowGot, it.Tuple.Value)
				}
			}
			slow.Release(seq)
		}
	}()

	for off := 0; off < total; off += batch {
		items := append(b.Get(), mkItems(off, batch)...)
		if err := b.Publish(context.Background(), items); err != nil {
			t.Fatalf("publish: %v", err)
		}
	}
	b.Close()
	wg.Wait()

	if slowErr != nil {
		t.Fatalf("slow: %v", slowErr)
	}
	if len(fastGot) != total {
		t.Fatalf("fast consumer got %d of %d", len(fastGot), total)
	}
	if got, shed := int64(len(slowGot)), slow.Shed(); got+shed != total {
		t.Fatalf("slow consumer: consumed %d + shed %d != published %d", got, shed, total)
	}
	if b.Dropped() != slow.Shed() {
		t.Fatalf("Dropped = %d, sub shed = %d", b.Dropped(), slow.Shed())
	}
	// Delivered values must still be a subsequence in order (no
	// duplicates, no reordering — laps skip forward only).
	last := -1.0
	for _, v := range slowGot {
		if v <= last {
			t.Fatalf("slow consumer saw %g after %g (reorder or duplicate)", v, last)
		}
		last = v
	}
}

func TestFailPropagatesAfterDrain(t *testing.T) {
	b := New(Options{Ring: 8})
	s := b.Subscribe("q", Block)
	if err := b.Publish(context.Background(), append(b.Get(), mkItems(0, 5)...)); err != nil {
		t.Fatal(err)
	}
	cause := errors.New("upstream gone")
	b.publish(context.Background(), nil, stream.BatchProv{}, true, cause) // what Pump does when its source fails

	vals, err := drain(context.Background(), s)
	if len(vals) != 5 {
		t.Fatalf("got %d tuples before the failure, want 5", len(vals))
	}
	if !errors.Is(err, cause) {
		t.Fatalf("err = %v, want %v", err, cause)
	}
	// The terminal error is sticky.
	if _, _, _, err := s.NextBatch(context.Background()); !errors.Is(err, cause) {
		t.Fatalf("NextBatch after failure = %v, want %v", err, cause)
	}
}

func TestPublishAfterCloseFails(t *testing.T) {
	b := New(Options{})
	b.Close()
	if err := b.Publish(context.Background(), mkItems(0, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestUnsubscribeUnblocksProducer(t *testing.T) {
	b := New(Options{Ring: 2})
	s := b.Subscribe("stuck", Block)
	live := b.Subscribe("live", Block)

	done := make(chan []float64)
	go func() {
		vals, _ := drain(context.Background(), live)
		done <- vals
	}()

	// Fill the ring past the stuck consumer, then unsubscribe it: the
	// producer must make progress without it.
	ctx := context.Background()
	if err := b.Publish(ctx, append(b.Get(), mkItems(0, 4)...)); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(ctx, append(b.Get(), mkItems(4, 4)...)); err != nil {
		t.Fatal(err)
	}
	s.Unsubscribe()
	for off := 8; off < 64; off += 4 {
		if err := b.Publish(ctx, append(b.Get(), mkItems(off, 4)...)); err != nil {
			t.Fatalf("publish after unsubscribe: %v", err)
		}
	}
	b.Close()
	if vals := <-done; len(vals) != 64 {
		t.Fatalf("live consumer got %d of 64", len(vals))
	}
}

func TestProducerCancelWhileBlocked(t *testing.T) {
	b := New(Options{Ring: 2})
	b.Subscribe("absent", Block) // never reads
	ctx, cancel := context.WithCancel(context.Background())
	go cancel()
	var err error
	for off := 0; off < 1024; off++ {
		if err = b.Publish(ctx, append(b.Get(), mkItems(off, 1)...)); err != nil {
			break
		}
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestConsumerCancelWhileWaiting(t *testing.T) {
	b := New(Options{})
	s := b.Subscribe("q", Block)
	ctx, cancel := context.WithCancel(context.Background())
	go cancel()
	_, _, _, err := s.NextBatch(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSubscribeAfterPublishPanics(t *testing.T) {
	b := New(Options{})
	if err := b.Publish(context.Background(), mkItems(0, 1)); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Subscribe after Publish did not panic")
		}
	}()
	b.Subscribe("late", Block)
}

func TestSubscribeLateJoinsAtFrontier(t *testing.T) {
	b := New(Options{Ring: 8})
	// Publish a prefix the late subscriber must never see or be charged
	// for.
	for i := 0; i < 5; i++ {
		if err := b.Publish(context.Background(), mkItems(i*10, 10)); err != nil {
			t.Fatal(err)
		}
	}
	s := b.SubscribeLate("runtime-q", ShedOldest)
	if got := s.Shed(); got != 0 {
		t.Fatalf("late sub shed baseline = %d, want 0", got)
	}
	if got := s.Pending(); got != 0 {
		t.Fatalf("late sub pending = %d, want 0", got)
	}
	errc := make(chan error, 1)
	valsc := make(chan []float64, 1)
	go func() {
		vals, err := drain(context.Background(), s)
		valsc <- vals
		errc <- err
	}()
	if err := b.Publish(context.Background(), mkItems(50, 10)); err != nil {
		t.Fatal(err)
	}
	b.Close()
	vals, err := <-valsc, <-errc
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 10 || vals[0] != 50 || vals[9] != 59 {
		t.Fatalf("late sub saw %v, want exactly the post-subscribe batch 50..59", vals)
	}
	if s.Shed() != 0 {
		t.Fatalf("late sub shed = %d after drain, want 0 (prefix is not a loss)", s.Shed())
	}
}

// TestSubFreshUntilPublish: a subscription is fresh — a subscriber attached
// now would see the same batches — until the next publish, whatever the
// subscriber has read; and a subscriber that leaves is no longer counted.
func TestSubFreshUntilPublish(t *testing.T) {
	b := New(Options{Ring: 8})
	early := b.Subscribe("early", Block)
	if !early.Fresh() {
		t.Fatal("a subscription on an unpublished ring is not fresh")
	}
	if err := b.Publish(context.Background(), mkItems(0, 10)); err != nil {
		t.Fatal(err)
	}
	if early.Fresh() {
		t.Fatal("still fresh after a publish")
	}
	late := b.SubscribeLate("late", ShedOldest)
	if !late.Fresh() {
		t.Fatal("a late subscription is not fresh at its frontier")
	}
	if err := b.Publish(context.Background(), mkItems(10, 10)); err != nil {
		t.Fatal(err)
	}
	if late.Fresh() {
		t.Fatal("a late subscription still fresh after a publish")
	}
	if n := b.Subscribers(); n != 2 {
		t.Fatalf("%d subscribers, want 2", n)
	}
	early.Unsubscribe()
	if n := b.Subscribers(); n != 1 {
		t.Fatalf("%d subscribers after one left, want 1", n)
	}
}

func TestSubscribeLateOnClosedRing(t *testing.T) {
	b := New(Options{Ring: 8})
	if err := b.Publish(context.Background(), mkItems(0, 10)); err != nil {
		t.Fatal(err)
	}
	b.Close()
	s := b.SubscribeLate("after-eos", ShedOldest)
	vals, err := drain(context.Background(), s)
	if err != nil || len(vals) != 0 {
		t.Fatalf("late sub on closed ring: vals=%v err=%v, want clean empty end", vals, err)
	}
	if s.Shed() != 0 {
		t.Fatalf("shed = %d, want 0", s.Shed())
	}
}

func TestSubscribeLateOnFailedRing(t *testing.T) {
	b := New(Options{Ring: 8})
	boom := errors.New("upstream died")
	b.publish(context.Background(), nil, stream.BatchProv{}, true, boom)
	s := b.SubscribeLate("after-fail", Block)
	if _, err := drain(context.Background(), s); !errors.Is(err, boom) {
		t.Fatalf("late sub on failed ring: err=%v, want %v", err, boom)
	}
}

func TestPumpDrivesRingFromSource(t *testing.T) {
	const total = 1000
	items := mkItems(0, total)
	// Interleave heartbeats so the forced-ship path runs.
	withHB := make([]stream.Item, 0, total+total/100)
	for i, it := range items {
		withHB = append(withHB, it)
		if i%100 == 99 {
			withHB = append(withHB, stream.HeartbeatItem(stream.Time(i)))
		}
	}
	b := New(Options{Ring: 16})
	s := b.Subscribe("q", Block)
	errc := make(chan error, 1)
	go func() { errc <- b.Pump(context.Background(), stream.AsErrSource(stream.NewSliceSource(withHB)), 64) }()
	vals, err := drain(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("pump: %v", err)
	}
	if len(vals) != total {
		t.Fatalf("got %d of %d tuples", len(vals), total)
	}
}

// A source failing at item n delivers exactly items [0,n) to every Block
// subscriber before the error surfaces — the partial last batch included:
// a consumer that journals what it is handed must end at the failure.
func TestPumpFailsEveryConsumerOnSourceError(t *testing.T) {
	cause := errors.New("flaky")
	const failAt, batch = 10, 4 // not a multiple: a partial batch is in flight
	n := 0
	src := errFuncSource(func() (stream.Item, bool, error) {
		if n >= failAt {
			return stream.Item{}, false, cause
		}
		it := mkItems(n, 1)[0]
		n++
		return it, true, nil
	})
	b := New(Options{})
	s1 := b.Subscribe("a", Block)
	s2 := b.Subscribe("b", Block)
	errc := make(chan error, 1)
	go func() { errc <- b.Pump(context.Background(), src, batch) }()
	for n, s := range []*Sub{s1, s2} {
		vals, err := drain(context.Background(), s)
		if !errors.Is(err, cause) {
			t.Fatalf("sub %d: err = %v, want %v", n, err, cause)
		}
		if len(vals) != failAt {
			t.Fatalf("sub %d: got %d tuples, want the %d accepted before the failure", n, len(vals), failAt)
		}
		for i, v := range vals {
			if v != float64(i) {
				t.Fatalf("sub %d: item %d = %g, want %d", n, i, v, i)
			}
		}
	}
	if !errors.Is(<-errc, cause) {
		t.Fatal("pump did not return the source error")
	}
}

// The latency policy: over a source that blocks between items, a starved
// subscriber gets the partial batch in progress instead of waiting for
// batchSize items that may be a long time coming.
func TestPumpShipsPartialBatchToStarvedConsumer(t *testing.T) {
	const batch, burst = 64, 40
	more := make(chan struct{})
	n := 0
	src := errFuncSource(func() (stream.Item, bool, error) {
		if n == burst {
			<-more // the source goes quiet mid-batch
			return stream.Item{}, false, nil
		}
		it := mkItems(n, 1)[0]
		n++
		return it, true, nil
	})
	b := New(Options{})
	s := b.Subscribe("q", Block)
	errc := make(chan error, 1)
	go func() { errc <- b.Pump(context.Background(), src, batch) }()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	items, seq, ok, err := s.NextBatch(ctx)
	if err != nil || !ok {
		t.Fatalf("starved consumer got no batch while the source was quiet: ok=%v err=%v", ok, err)
	}
	if len(items) == 0 || len(items) >= batch {
		t.Fatalf("first batch has %d items, want a partial one (0 < n < %d)", len(items), batch)
	}
	s.Release(seq)
	close(more)
	rest, err := drain(context.Background(), s)
	if err != nil || len(items)+len(rest) != burst {
		t.Fatalf("got %d + %d items (err %v), want %d in all", len(items), len(rest), err, burst)
	}
	if err := <-errc; err != nil {
		t.Fatalf("pump: %v", err)
	}
}

// A cancelled Pump stops even when nothing can make Publish wait: with its
// consumers gone the ring never fills, and an endless source would
// otherwise be drained forever.
func TestPumpStopsOnCancelWithoutConsumers(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	src := errFuncSource(func() (stream.Item, bool, error) {
		if n++; n == 1000 {
			cancel()
		}
		return mkItems(n, 1)[0], true, nil
	})
	b := New(Options{Ring: 2})
	b.Subscribe("gone", Block).Unsubscribe()
	errc := make(chan error, 1)
	go func() { errc <- b.Pump(ctx, src, 8) }()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("pump returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pump kept draining an endless source after its context was cancelled")
	}
}

func TestLagAndPendingGauges(t *testing.T) {
	b := New(Options{Ring: 8})
	s := b.Subscribe("q", Block)
	ctx := context.Background()
	for off := 0; off < 12; off += 4 {
		if err := b.Publish(ctx, append(b.Get(), mkItems(off, 4)...)); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Lag(); got != 3 {
		t.Fatalf("Lag = %d, want 3", got)
	}
	if got := s.Pending(); got != 12 {
		t.Fatalf("Pending = %d, want 12", got)
	}
	items, seq, ok, err := s.NextBatch(ctx)
	if err != nil || !ok || len(items) != 4 {
		t.Fatalf("NextBatch = %v %v %v", items, ok, err)
	}
	s.Release(seq)
	if got := s.Lag(); got != 2 {
		t.Fatalf("Lag after release = %d, want 2", got)
	}
	if got := s.Pending(); got != 8 {
		t.Fatalf("Pending after release = %d, want 8", got)
	}
}

func TestPolicyString(t *testing.T) {
	if Block.String() != "block" || ShedOldest.String() != "shed-oldest" {
		t.Fatal("policy names changed")
	}
}
