// Package fanout is the shared-source ingest substrate: one producer
// publishes pooled batches of stream items into a sequenced broadcast
// ring, and many consumers — one per continuous query — read the same
// batches through per-consumer cursors. N queries on one stream pay one
// ingest path (generation, decoration, chaos/retry handling all happen
// once, on the producer side) instead of N.
//
// The design is disruptor-style:
//
//   - The ring is a power-of-two array of slots, each an atomic pointer
//     to an immutable published batch. Batch seq determines its slot
//     (seq & mask); publishing is one atomic store plus a wake-up.
//   - Every consumer owns a cursor: the sequence it will read next.
//     Reading is one atomic load of the slot plus a stamp check; no
//     locks, no per-consumer channels, no copies — consumers borrow the
//     published batch until they Release it.
//   - A batch goes back to the ring's free list at the Release that
//     moves the last live consumer's cursor past it, so a source whose
//     consumers keep up cycles two or three batches, however deep the
//     ring. Ring depth bounds how far a consumer may lag, not memory:
//     what a source holds is what its consumers have not released. A
//     batch a lapped ShedOldest consumer held is not released by it; it
//     comes back when its slot is overwritten with every live cursor
//     past it, or else goes to the GC.
//
// Slow consumers choose a policy at Subscribe time. Block consumers
// apply backpressure: the producer waits before overwriting a slot a
// Block consumer has not released, so they see every batch — their
// output is byte-identical to a standalone run over the same stream
// (the DST fan-out oracle enforces exactly this). ShedOldest consumers
// never slow the producer: when one is lapped, its next read skips to
// the oldest batch still in the ring and the skipped data tuples are
// counted as shed — each batch carries the cumulative data-tuple count,
// so the accounting is exact and feeds AggReport.Shed.
package fanout

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obs/tracez"
	"repro/internal/stream"
)

// Policy says what happens to a consumer that falls a full ring behind
// the producer.
type Policy int

const (
	// Block makes the producer wait for the consumer: no batch is ever
	// overwritten before the consumer releases it, so the consumer sees
	// the complete stream (lossless, backpressuring).
	Block Policy = iota
	// ShedOldest lets the producer lap the consumer: overwritten batches
	// are skipped on the consumer's next read and their data tuples are
	// counted on Sub.Shed. The producer never blocks on such a consumer.
	ShedOldest
)

// String names the policy.
func (p Policy) String() string {
	if p == ShedOldest {
		return "shed-oldest"
	}
	return "block"
}

// ErrClosed is returned by Publish after Close or a failed Pump.
var ErrClosed = errors.New("fanout: broadcast closed")

// batch is one published ring entry. Batches are immutable once stored:
// the producer stamps a fresh one per Publish and consumers only read,
// so slot pointers are the only shared mutable state — besides recycled,
// which hands items back to the free list exactly once.
type batch struct {
	seq      int64 // ring sequence, dense from 0
	items    []stream.Item
	n        int64            // data tuples in items (heartbeats excluded)
	cum      int64            // cumulative data tuples through this batch, inclusive
	eos      bool             // end-of-stream marker (items empty)
	err      error            // producer failure (items empty, eos set)
	prov     stream.BatchProv // wire provenance (zero when the producer has none)
	recycled atomic.Bool
}

// freeKeep bounds the item slices a ring keeps idle. Consumers that keep up
// need two or three; what a lag burst returns beyond that goes to the GC, so
// idle memory does not grow with ring depth either.
const freeKeep = 8

// freeList holds released item slices, newest on top, so the producer
// refills the one most recently read. A sync.Pool may drop what it is given
// (under -race it drops a quarter on purpose), and a consumer's Put lands in
// its own P's private slot, out of the producer's reach; here reuse is
// deterministic.
type freeList struct {
	mu    sync.Mutex
	free  [][]stream.Item
	fresh int // capacity of a slice made when the list is empty
}

// Get pops the newest idle slice, or makes one.
func (f *freeList) Get() []stream.Item {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n := len(f.free); n > 0 {
		items := f.free[n-1]
		f.free[n-1] = nil
		f.free = f.free[:n-1]
		return items
	}
	return make([]stream.Item, 0, f.fresh)
}

// Put keeps items for reuse; when freeKeep slices are idle already, the
// oldest of them goes to the GC instead.
func (f *freeList) Put(items []stream.Item) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.free) == freeKeep {
		copy(f.free, f.free[1:])
		f.free = f.free[:freeKeep-1]
	}
	f.free = append(f.free, items)
}

// signal is a broadcast parking spot: waiters grab the current epoch
// channel and sleep on it; wakers swap in a fresh channel and close the
// old one. The seq-cst waiters counter lets the fast path skip the
// swap+close entirely when nobody is parked (the Dekker pattern: a
// waiter increments before re-checking its condition, a waker updates
// state before loading the counter, so one of them always sees the
// other).
type signal struct {
	ch      atomic.Pointer[chan struct{}]
	waiters atomic.Int64
}

func newSignal() *signal {
	s := &signal{}
	ch := make(chan struct{})
	s.ch.Store(&ch)
	return s
}

// get returns the channel a prospective waiter should sleep on. Call
// before re-checking the wait condition.
func (s *signal) get() chan struct{} { return *s.ch.Load() }

// wake unparks every current waiter. State changes that satisfy wait
// conditions must be published before the call.
func (s *signal) wake() {
	if s.waiters.Load() == 0 {
		return
	}
	next := make(chan struct{})
	old := s.ch.Swap(&next)
	close(*old)
}

// await parks until ch is closed or ctx/stop fires. The caller must
// have re-checked its condition after get and after incrementing
// waiters; await only sleeps.
func (s *signal) await(ctx context.Context, ch chan struct{}) error {
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Options configures a Broadcast.
type Options struct {
	// Ring is the ring capacity in batches, rounded up to a power of
	// two; <= 0 picks 64. A Block consumer may hold the producer back by
	// at most Ring batches, and a ShedOldest consumer can lag at most
	// Ring batches before losing data.
	Ring int
	// BatchCap seeds the pooled item slices (the producer may publish
	// batches of any length); <= 0 picks 64.
	BatchCap int
}

// Broadcast is the single-producer multi-consumer ring. Publish, Close
// and Pump must be called from one goroutine (the producer); Subscribe
// may be called from anywhere but only before the first Publish;
// consumer methods are safe concurrently with the producer.
type Broadcast struct {
	mask  int64
	slots []atomic.Pointer[batch]

	next   int64 // producer-owned: next sequence to publish
	cum    int64 // producer-owned: cumulative data tuples published
	closed bool  // producer-owned: the end-of-stream marker was published

	// pubCum mirrors cum for concurrent readers (queue-depth gauges).
	pubCum atomic.Int64
	// pubSeq is the highest published sequence + 1 (0 = nothing yet).
	pubSeq atomic.Int64

	published atomic.Int64 // batches published (excluding the final marker)

	pool freeList // released item slices

	mu     sync.Mutex
	subs   []*Sub
	sealed bool // first Publish happened; Subscribe now panics

	pub  *signal // consumers wait here for new batches
	cons *signal // the producer waits here for cursor progress

	tracer *tracez.Tracer
}

// New builds a broadcast ring.
func New(o Options) *Broadcast {
	ring := o.Ring
	if ring <= 0 {
		ring = 64
	}
	n := 1
	for n < ring {
		n <<= 1
	}
	bcap := o.BatchCap
	if bcap <= 0 {
		bcap = 64
	}
	return &Broadcast{
		mask:  int64(n - 1),
		slots: make([]atomic.Pointer[batch], n),
		pool:  freeList{fresh: bcap},
		pub:   newSignal(),
		cons:  newSignal(),
	}
}

// Trace mirrors publish events into the tracer's flight recorder
// (KindFanoutPublish, stamped with the batch's last stream-time
// position). Call before the first Publish.
func (b *Broadcast) Trace(tr *tracez.Tracer) { b.tracer = tr }

// Subscribe registers a consumer under the given policy; name is the
// caller's label for it, which the ring does not keep. It must be
// called before the first Publish — a late subscriber would miss a
// prefix of the stream, which silently breaks the byte-equivalence
// contract, so the ring refuses instead.
func (b *Broadcast) Subscribe(name string, p Policy) *Sub {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.sealed {
		panic("fanout: Subscribe after first Publish")
	}
	s := &Sub{b: b, policy: p}
	b.subs = append(b.subs, s)
	return s
}

// SubscribeLate registers a consumer at the ring's current frontier: it
// sees only batches published after the call, with a zero shed baseline
// (the prefix it never saw is not counted as lost). This is the attach
// point for queries registered at runtime — the byte-equivalence
// contract Subscribe protects cannot hold for a consumer that asked to
// join mid-stream, so it is deliberately not offered. Safe to call
// concurrently with the producer; on an already-closed ring the
// subscriber observes an immediate clean end (or the producer's
// terminal error).
func (b *Broadcast) SubscribeLate(name string, p Policy) *Sub {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := &Sub{b: b, policy: p}
	// Pin the frontier batch to seed the shed baseline. pubSeq and the
	// slot are published by separate atomics, so the slot may already
	// hold a later lap of the ring; retry at the fresh frontier.
	var seq int64
	var last *batch
	for {
		seq = b.pubSeq.Load()
		if seq == 0 {
			break
		}
		if bt := b.slots[(seq-1)&b.mask].Load(); bt != nil && bt.seq == seq-1 {
			last = bt
			break
		}
	}
	if last != nil {
		s.lastCum = last.cum
		if last.eos {
			// The stream already ended: point the consumer back at the
			// marker so it sees the clean end (or terminal error) instead
			// of parking on a slot that will never be published.
			seq--
		}
	}
	s.acq, s.from = seq, seq
	s.cursor.Store(seq)
	s.consumedFloor.Store(s.lastCum)
	b.subs = append(b.subs, s)
	return s
}

// Get returns an item slice (length 0) for the producer to fill before
// Publish, reusing a released one when it can. Publishing hands ownership
// to the ring; the slice comes back at the Release that moves the last
// live consumer's cursor past its batch. A batch a lapped ShedOldest
// consumer held comes back when its slot is overwritten with every live
// cursor past it, or goes to the GC.
func (b *Broadcast) Get() []stream.Item {
	return b.pool.Get()[:0]
}

// recycle returns bt's items to the free list, once: a releasing consumer
// and the producer overwriting bt's slot may both find bt behind every
// live cursor. The caller must have seen exactly that (minCursor > bt.seq).
func (b *Broadcast) recycle(bt *batch) {
	if bt.items != nil && bt.recycled.CompareAndSwap(false, true) {
		b.pool.Put(bt.items[:0])
	}
}

// minCursor returns the smallest next-to-read sequence over live
// consumers with the given policy filter (blockOnly == false counts all).
// Dead (unsubscribed) consumers never hold the ring back.
func (b *Broadcast) minCursor(blockOnly bool) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	min := int64(1<<62 - 1)
	for _, s := range b.subs {
		if s.dead.Load() {
			continue
		}
		if blockOnly && s.policy != Block {
			continue
		}
		if c := s.cursor.Load(); c < min {
			min = c
		}
	}
	return min
}

// Publish stamps items as the next batch and stores it in the ring,
// waiting (under ctx) for Block consumers when the target slot is still
// unreleased. On success the ring owns items. Returns ErrClosed after
// Close or a failed Pump, ctx.Err() when cancelled while waiting.
func (b *Broadcast) Publish(ctx context.Context, items []stream.Item) error {
	return b.publish(ctx, items, stream.BatchProv{}, false, nil)
}

// PublishProv is Publish with wire provenance attached: consumers that
// read through NextBatchProv see the batch's client-stamped id and send
// time alongside the items.
func (b *Broadcast) PublishProv(ctx context.Context, items []stream.Item, prov stream.BatchProv) error {
	return b.publish(ctx, items, prov, false, nil)
}

// Close publishes the end-of-stream marker: every consumer drains the
// remaining batches and then sees a clean end. Idempotent only in the
// sense that the producer must not publish afterwards.
func (b *Broadcast) Close() { b.publish(context.Background(), nil, stream.BatchProv{}, true, nil) }

func (b *Broadcast) publish(ctx context.Context, items []stream.Item, prov stream.BatchProv, eos bool, errv error) error {
	if b.closed {
		return ErrClosed
	}
	b.mu.Lock()
	b.sealed = true
	b.mu.Unlock()

	seq := b.next
	var n int64
	var last int64
	for _, it := range items {
		if it.Heartbeat {
			last = int64(it.Watermark)
		} else {
			n++
			last = int64(it.Tuple.Arrival)
		}
	}
	b.cum += n
	nb := &batch{seq: seq, items: items, n: n, cum: b.cum, eos: eos, err: errv, prov: prov}

	// Wait for the slot: the previous occupant (seq - ring) must have
	// been released by every live Block consumer before it is
	// overwritten. ShedOldest consumers are deliberately excluded — they
	// are lapped, not waited for.
	ring := b.mask + 1
	for seq >= ring {
		if b.minCursor(true) > seq-ring {
			break
		}
		b.cons.waiters.Add(1)
		ch := b.cons.get()
		if b.minCursor(true) > seq-ring {
			b.cons.waiters.Add(-1)
			break
		}
		err := b.cons.await(ctx, ch)
		b.cons.waiters.Add(-1)
		if err != nil {
			b.cum -= n // unpublish: the batch never entered the ring
			return err
		}
	}

	// Recycle the batch being overwritten if every live consumer —
	// including ShedOldest ones — is past it and no Release did (a lapped
	// consumer skipped it, or a laggard left); otherwise let the GC have
	// it (a straggling shed consumer may still be reading it).
	if old := b.slots[seq&b.mask].Load(); old != nil && b.minCursor(false) > old.seq {
		b.recycle(old)
	}

	b.slots[seq&b.mask].Store(nb)
	b.next = seq + 1
	b.pubSeq.Store(seq + 1)
	b.pubCum.Store(b.cum)
	if eos {
		b.closed = true
	} else {
		b.published.Add(1)
		if b.tracer != nil {
			b.tracer.FanoutPublish(last, seq, int(n))
		}
	}
	b.pub.wake()
	return nil
}

// Subscribers reports how many consumers are subscribed and have not left.
func (b *Broadcast) Subscribers() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, s := range b.subs {
		if !s.dead.Load() {
			n++
		}
	}
	return n
}

// Published reports how many batches were published (markers excluded).
func (b *Broadcast) Published() int64 { return b.published.Load() }

// cumData reports the cumulative count of published data tuples.
func (b *Broadcast) cumData() int64 { return b.pubCum.Load() }

// Pump drives the ring from a pull-based source: items are drained,
// batched and published until the source ends or fails. A batch ships when
// it is full (batchSize), at every heartbeat (progress signals are never
// parked) and — the latency policy — as soon as every consumer has drained
// the ring: nobody has work then, so holding a partial batch back would
// only add delay, and a paced source never waits on batchSize. A clean end
// publishes Close; a source error publishes what was accepted before it
// and then a terminal marker carrying the error, so every consumer applies
// the same prefix and aborts with the cause, and Pump returns it.
// Retry/chaos wrappers belong on src — upstream of the ring, where the
// single producer pays for resilience once on behalf of every consumer.
func (b *Broadcast) Pump(ctx context.Context, src stream.ErrSource, batchSize int) error {
	if batchSize <= 0 {
		batchSize = 64
	}
	// The floor keeps starved consumers from degenerating the transport
	// into per-item handoffs — each tiny ship costs two scheduler switches
	// — and a smaller batch is at most one heartbeat away from going out.
	idleShip := min(32, batchSize)
	cur := b.Get()
	ship := func() error {
		if len(cur) == 0 {
			return nil
		}
		// Publish only looks at ctx when it has to wait, and with every
		// consumer gone it never does: a cancelled Pump must still stop.
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := b.Publish(ctx, cur); err != nil {
			return err
		}
		cur = b.Get()
		return nil
	}
	// end publishes the terminal marker — waiting for its slot under ctx
	// like any batch, so a cancelled Pump is never wedged behind a consumer
	// that will not release (the marker is dropped; consumers reading under
	// ctx are unwinding anyway) — and returns cause.
	end := func(cause error) error {
		if err := b.publish(ctx, nil, stream.BatchProv{}, true, cause); err != nil && cause == nil {
			return err
		}
		return cause
	}
	for {
		it, ok, err := src.NextErr()
		if err != nil || !ok {
			// What was accepted before the end reaches every consumer (and
			// its journal) first.
			if serr := ship(); serr != nil {
				return end(serr)
			}
			if err != nil {
				end(fmt.Errorf("fanout: source: %w", err))
				return err
			}
			return end(nil)
		}
		cur = append(cur, it)
		if it.Heartbeat || len(cur) >= batchSize || (len(cur) >= idleShip && b.drained()) {
			if err := ship(); err != nil {
				return end(err)
			}
		}
	}
}

// drained reports whether every live consumer has released everything
// published so far. Producer-side only (it reads next).
func (b *Broadcast) drained() bool { return b.minCursor(false) >= b.next }

// Sub is one consumer's handle on the ring. A Sub is owned by a single
// consumer goroutine; only Shed, Lag and Pending are safe to call from
// other goroutines (metrics scrape them).
type Sub struct {
	b      *Broadcast
	policy Policy

	// cursor is the next sequence this consumer will read; advanced by
	// Release. The producer reads it to gate slot overwrites (Block) and
	// batch recycling (all policies).
	cursor atomic.Int64
	// acq is the next sequence NextBatch will hand out (consumer-local;
	// it runs ahead of cursor while batches are borrowed).
	acq int64
	// from is the sequence the subscription started at.
	from int64
	// lastCum is the cumulative data count through the last acquired
	// batch — the baseline for exact shed accounting on a lap.
	lastCum int64

	shed atomic.Int64
	dead atomic.Bool
	// consumedFloor is the cumulative data count through the last
	// released batch, maintained for the Pending gauge.
	consumedFloor atomic.Int64

	termErr error // terminal producer error, once seen
	done    bool  // end-of-stream seen
}

// Fresh reports whether nothing has been published since the subscription
// was made, so that a subscriber attached now would be handed exactly the
// batches this one will be. Safe to call from any goroutine.
func (s *Sub) Fresh() bool { return s.b.pubSeq.Load() == s.from }

// Shed reports the data tuples this consumer lost to ShedOldest laps.
func (s *Sub) Shed() int64 { return s.shed.Load() }

// Lag reports how many published batches this consumer has not yet
// released — the aq_fanout_lag_batches gauge.
func (s *Sub) Lag() int64 {
	lag := s.b.pubSeq.Load() - s.cursor.Load()
	if lag < 0 {
		return 0
	}
	return lag
}

// Pending reports the data tuples published but not yet consumed by
// this subscriber — the ring's contribution to aq_queue_depth.
func (s *Sub) Pending() int64 {
	// The consumed floor is the cumulative data count through the last
	// released batch (shed tuples fold into it when a lapped consumer
	// releases its adopted batch), so the difference is the in-ring
	// backlog — the usual metrics-grade approximation, read entirely
	// from atomics so scrape goroutines never race the consumer.
	p := s.b.cumData() - s.consumedFloor.Load()
	if p < 0 {
		return 0
	}
	return p
}

// Unsubscribe marks the consumer dead: the producer stops waiting on it
// and its unreleased batches become recyclable. Call it (or defer it)
// when a consumer exits early so Block peers and the producer are not
// wedged forever.
func (s *Sub) Unsubscribe() {
	if s.dead.Swap(true) {
		return
	}
	s.b.cons.wake()
}

// NextBatch borrows the next published batch: the items remain valid
// until Release(seq) is called. Releases must be issued in acquisition
// order. Returns ok=false at end of stream and a non-nil error when the
// producer failed (after all prior batches were delivered). ShedOldest
// consumers may observe a jump: skipped batches are accounted on Shed.
func (s *Sub) NextBatch(ctx context.Context) (items []stream.Item, seq int64, ok bool, err error) {
	items, seq, _, ok, err = s.NextBatchProv(ctx)
	return items, seq, ok, err
}

// NextBatchProv is NextBatch plus the batch's wire provenance (the zero
// BatchProv when the producer published without any).
func (s *Sub) NextBatchProv(ctx context.Context) (items []stream.Item, seq int64, prov stream.BatchProv, ok bool, err error) {
	bt, err := s.acquire(ctx)
	if err != nil {
		return nil, 0, stream.BatchProv{}, false, err
	}
	if bt == nil {
		return nil, 0, stream.BatchProv{}, false, nil
	}
	return bt.items, bt.seq, bt.prov, true, nil
}

// acquire waits for and adopts the batch at (or, for a lapped
// ShedOldest consumer, above) s.acq. nil, nil means end of stream.
func (s *Sub) acquire(ctx context.Context) (*batch, error) {
	if s.termErr != nil {
		return nil, s.termErr
	}
	if s.done {
		return nil, nil
	}
	for {
		bt := s.b.slots[s.acq&s.b.mask].Load()
		if bt != nil && bt.seq >= s.acq {
			if bt.seq > s.acq {
				// Lapped: bt is the oldest batch still in this slot. Under
				// Block this cannot happen (the producer waits); under
				// ShedOldest the skipped batches' data tuples are shed.
				if s.policy == Block {
					panic("fanout: Block consumer lapped (cursor protocol violated)")
				}
				lost := (bt.cum - bt.n) - s.lastCum
				s.shed.Add(lost)
			}
			s.lastCum = bt.cum
			s.acq = bt.seq + 1
			if bt.eos {
				// Terminal marker: adopt it as released immediately (it
				// carries no items) so the cursor reflects completion.
				s.cursor.Store(s.acq)
				s.consumedFloor.Store(bt.cum)
				s.b.cons.wake()
				if bt.err != nil {
					s.termErr = bt.err
					return nil, bt.err
				}
				s.done = true
				return nil, nil
			}
			return bt, nil
		}
		// Not yet published: park on the publish signal.
		s.b.pub.waiters.Add(1)
		ch := s.b.pub.get()
		if bt := s.b.slots[s.acq&s.b.mask].Load(); bt != nil && bt.seq >= s.acq {
			s.b.pub.waiters.Add(-1)
			continue
		}
		err := s.b.pub.await(ctx, ch)
		s.b.pub.waiters.Add(-1)
		if err != nil {
			return nil, err
		}
	}
}

// Release returns a borrowed batch to the ring. seq must be the
// sequence NextBatch handed out; releases are in-order, so the cursor
// simply advances past it. The release that moves the last live cursor
// past the batch recycles its items.
func (s *Sub) Release(seq int64) {
	s.cursor.Store(seq + 1)
	if bt := s.b.slots[seq&s.b.mask].Load(); bt != nil && bt.seq == seq {
		s.consumedFloor.Store(bt.cum)
		// A batch pubSeq does not count yet is left to the overwrite: a
		// SubscribeLate joining now would start at it, and minCursor cannot
		// see that joiner before it registers.
		if seq < s.b.pubSeq.Load() && s.b.minCursor(false) > seq {
			s.b.recycle(bt)
		}
	}
	s.b.cons.wake()
}
