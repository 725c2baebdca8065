package fanout

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/stream"
)

// arrays counts the distinct backing arrays of the slices it is shown.
type arrays map[*stream.Item]bool

func (a arrays) see(items []stream.Item) { a[unsafe.SliceData(items)] = true }

// TestRecycleAtLastRelease: a consumer that releases each batch before the
// next publish keeps a 256-slot ring on two item slices — the one in the ring
// and the one being filled — not one per slot.
func TestRecycleAtLastRelease(t *testing.T) {
	const publishes = 10_000
	b := New(Options{Ring: 256, BatchCap: 4})
	s := b.Subscribe("q", Block)
	ctx := context.Background()
	seen := arrays{}
	cur := b.Get()
	for i := 0; i < publishes; i++ {
		seen.see(cur)
		if err := b.Publish(ctx, append(cur, mkItems(i*4, 4)...)); err != nil {
			t.Fatal(err)
		}
		cur = b.Get() // the listener borrows its next batch before the release
		_, seq, ok, err := s.NextBatch(ctx)
		if !ok || err != nil {
			t.Fatalf("NextBatch: ok=%v err=%v", ok, err)
		}
		s.Release(seq)
	}
	if len(seen) > 2 {
		t.Fatalf("%d publishes used %d distinct item slices, want at most 2", publishes, len(seen))
	}
}

// checkBatch fails unless items hold exactly what the producer in
// TestNoReuseWhileHeld published as batch seq.
func checkBatch(items []stream.Item, seq int64, per int) error {
	if len(items) != per {
		return fmt.Errorf("batch %d has %d items, want %d", seq, len(items), per)
	}
	for i := range items {
		if want := float64(seq*int64(per) + int64(i)); items[i].Tuple.Value != want {
			return fmt.Errorf("batch %d item %d = %g, want %g: handed out again while held", seq, i, items[i].Tuple.Value, want)
		}
	}
	return nil
}

// TestNoReuseWhileHeld: no batch is refilled while a live consumer still
// holds it — a Block consumer holding several batches at once, a ShedOldest
// consumer that holds one until the producer has lapped it, and consumers
// that join late, mid-stream. Each reader checks its borrowed items when it
// takes them and again just before it releases them.
func TestNoReuseWhileHeld(t *testing.T) {
	const per, ring = 8, 8
	publishes := int64(4000)
	if testing.Short() {
		publishes = 1000
	}
	b := New(Options{Ring: ring, BatchCap: per})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	report := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}

	// A Block consumer that keeps up to three batches borrowed.
	lagging := b.Subscribe("lagging", Block)
	wg.Add(1)
	go func() {
		defer wg.Done()
		var held []int64
		var heldItems [][]stream.Item
		for {
			items, seq, ok, err := lagging.NextBatch(ctx)
			if err != nil || !ok {
				return
			}
			if err := checkBatch(items, seq, per); err != nil {
				report(err)
			}
			held, heldItems = append(held, seq), append(heldItems, items)
			if len(held) == 3 {
				time.Sleep(time.Duration(seq%3) * time.Microsecond)
				if err := checkBatch(heldItems[0], held[0], per); err != nil {
					report(err)
				}
				lagging.Release(held[0])
				held, heldItems = held[1:], heldItems[1:]
			}
		}
	}()

	// A ShedOldest consumer that, every 50th batch, holds it until the
	// producer is more than a ring past it.
	lapped := b.Subscribe("lapped", ShedOldest)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			items, seq, ok, err := lapped.NextBatch(ctx)
			if err != nil || !ok {
				return
			}
			if err := checkBatch(items, seq, per); err != nil {
				report(err)
			}
			if seq%50 == 0 {
				for b.pubSeq.Load() <= seq+ring+1 && b.pubSeq.Load() < publishes {
					time.Sleep(10 * time.Microsecond)
				}
				if err := checkBatch(items, seq, per); err != nil {
					report(err)
				}
			}
			lapped.Release(seq)
		}
	}()

	// Late joiners, one after another: each reads a few batches and leaves.
	var joins atomic.Int64
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := b.SubscribeLate("late", Block)
			joins.Add(1)
			for k := 0; k < 4; k++ {
				items, seq, ok, err := s.NextBatch(ctx)
				if err != nil || !ok {
					break
				}
				if err := checkBatch(items, seq, per); err != nil {
					report(err)
				}
				if err := checkBatch(items, seq, per); err != nil {
					report(err)
				}
				s.Release(seq)
			}
			s.Unsubscribe()
		}
	}()

	for i := int64(0); i < publishes; i++ {
		if err := b.Publish(ctx, append(b.Get(), mkItems(int(i)*per, per)...)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	b.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if lapped.Shed() == 0 {
		t.Error("the ShedOldest consumer was never lapped; the test did not cover a lapped hold")
	}
	if joins.Load() < 2 {
		t.Errorf("only %d late joiners ran", joins.Load())
	}
}

// TestUnsubscribeLetsBatchesRecycle: a ShedOldest consumer that stopped
// reading holds every batch behind its cursor, so each publish takes a fresh
// slice; once it unsubscribes, the ring reuses the slices it pinned.
func TestUnsubscribeLetsBatchesRecycle(t *testing.T) {
	const ring = 16
	b := New(Options{Ring: ring, BatchCap: 4})
	stuck := b.Subscribe("stuck", ShedOldest)
	live := b.Subscribe("live", Block)
	ctx := context.Background()
	step := func(i int, seen arrays) {
		cur := b.Get()
		seen.see(cur)
		if err := b.Publish(ctx, append(cur, mkItems(i*4, 4)...)); err != nil {
			t.Fatal(err)
		}
		_, seq, ok, err := live.NextBatch(ctx)
		if !ok || err != nil {
			t.Fatalf("NextBatch: ok=%v err=%v", ok, err)
		}
		live.Release(seq)
	}
	before := arrays{}
	for i := 0; i < 4*ring; i++ {
		step(i, before)
	}
	if len(before) < 4*ring {
		t.Fatalf("a stuck consumer pins every batch, yet %d publishes used only %d slices", 4*ring, len(before))
	}
	stuck.Unsubscribe()
	after := arrays{}
	for i := 4 * ring; i < 1000; i++ {
		step(i, after)
	}
	if len(after) > 2 {
		t.Fatalf("after the laggard left, %d publishes used %d distinct slices, want at most 2", 1000-4*ring, len(after))
	}
	pinned := 0
	for _, items := range b.pool.free {
		if before[unsafe.SliceData(items)] {
			pinned++
		}
	}
	if pinned == 0 {
		t.Fatal("none of the slices the laggard pinned came back to the free list")
	}
}
