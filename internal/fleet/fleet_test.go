package fleet

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fanout"
	"repro/internal/netstream"
	"repro/internal/obs"
	"repro/internal/stream"
)

// fakeClock is a manually-advanced resilience.Clock for deterministic
// rate-limiter tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Sleep(ctx context.Context, d time.Duration) error {
	c.advance(d)
	return nil
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func dataItems(start, n int) []stream.Item {
	out := make([]stream.Item, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, stream.DataItem(stream.Tuple{
			TS: stream.Time(start + i), Arrival: stream.Time(start + i),
			Seq: uint64(start + i), Value: float64(start + i),
		}))
	}
	return out
}

// drainSub reads data values off a subscription until end of stream.
func drainSub(t *testing.T, sub *fanout.Sub) []float64 {
	t.Helper()
	var vals []float64
	for {
		items, seq, ok, err := sub.NextBatch(context.Background())
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
		if !ok {
			return vals
		}
		for _, it := range items {
			if !it.Heartbeat {
				vals = append(vals, it.Tuple.Value)
			}
		}
		sub.Release(seq)
	}
}

// TestSourceGetFitsTheListener: a fresh batch from a source has the
// listener's capacity, so decoding a full ConnBatch into it never regrows it.
func TestSourceGetFitsTheListener(t *testing.T) {
	r := NewRegistry(Options{})
	if got := cap(r.Source("s1").Get()); got != netstream.ConnBatch {
		t.Fatalf("fresh Source.Get() capacity = %d, want netstream.ConnBatch = %d", got, netstream.ConnBatch)
	}
}

func TestPublishCreatesSourceAndCopiesBatch(t *testing.T) {
	r := NewRegistry(Options{})
	if r.HasSource("s1") {
		t.Fatal("source exists before first publish")
	}
	sub := r.Source("s1").Attach("q1")
	if !r.HasSource("s1") {
		t.Fatal("Source() did not register the source")
	}

	// Reuse one backing buffer across publishes, as the listener does;
	// the source must copy, so the consumer still sees the original
	// values.
	buf := make([]stream.Item, 0, 8)
	for i := 0; i < 4; i++ {
		buf = append(buf[:0], dataItems(i*10, 5)...)
		if err := r.Publish("s1", "t1", buf, stream.BatchProv{}); err != nil {
			t.Fatal(err)
		}
	}
	r.Close()
	vals := drainSub(t, sub)
	if len(vals) != 20 {
		t.Fatalf("got %d values, want 20", len(vals))
	}
	for i, want := range []float64{0, 10, 20, 30} {
		if vals[i*5] != want {
			t.Fatalf("batch %d head = %v, want %v (batch aliased the reused buffer)", i, vals[i*5], want)
		}
	}
	if got := r.Source("s1").Tuples(); got != 20 {
		t.Fatalf("Tuples() = %d, want 20", got)
	}
}

func TestRateLimiterShedsDataKeepsHeartbeats(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	r := NewRegistry(Options{MaxIngestPerSec: 100, Clock: clk})
	src := r.Source("s1")
	sub := src.Attach("q1")

	// Burst capacity is one second of rate: 150 data tuples against a
	// full 100-token bucket admits 100 and sheds 50. The interleaved
	// heartbeat always passes.
	batch := append(dataItems(0, 150), stream.HeartbeatItem(999))
	if err := src.PublishProv(batch, stream.BatchProv{}); err != nil {
		t.Fatal(err)
	}
	if got := src.RateShed(); got != 50 {
		t.Fatalf("RateShed = %d, want 50", got)
	}
	if got := src.Tuples(); got != 100 {
		t.Fatalf("Tuples = %d, want 100", got)
	}

	// Half a second refills 50 tokens.
	clk.advance(500 * time.Millisecond)
	if err := src.PublishProv(dataItems(200, 60), stream.BatchProv{}); err != nil {
		t.Fatal(err)
	}
	if got := src.RateShed(); got != 60 {
		t.Fatalf("RateShed after refill = %d, want 60", got)
	}

	r.Close()
	vals := drainSub(t, sub)
	if len(vals) != 150 {
		t.Fatalf("consumer saw %d data tuples, want 150 (100 + 50 admitted)", len(vals))
	}
}

// TestCloseEndsStreamsAndStopsQueries: Close ends every source's ring, so
// each query reading one drains what was published and stops at a clean end
// of stream; nothing opens or publishes afterwards.
func TestCloseEndsStreamsAndStopsQueries(t *testing.T) {
	r := NewRegistry(Options{})
	subs := []*fanout.Sub{r.Source("s1").Attach("q1"), r.Source("s1").Attach("q2"), r.Source("s2").Attach("q3")}
	if err := r.Publish("s1", "t", dataItems(0, 3), stream.BatchProv{}); err != nil {
		t.Fatal(err)
	}
	r.Close()
	r.Close() // idempotent
	for i, want := range []int{3, 3, 0} {
		if vals := drainSub(t, subs[i]); len(vals) != want {
			t.Fatalf("reader %d saw %d values, want %d then clean end", i, len(vals), want)
		}
	}
	if err := r.Publish("s1", "t", dataItems(0, 1), stream.BatchProv{}); err == nil {
		t.Fatal("Publish after Close should fail")
	}
	if _, err := r.Open("s3"); err == nil {
		t.Fatal("Open after Close should fail")
	}
}

func TestConcurrentPublishersOneRing(t *testing.T) {
	r := NewRegistry(Options{})
	src := r.Source("s1")
	sub := src.Attach("q1")
	const conns, per = 4, 250
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < per; i += 50 {
				if err := src.PublishProv(dataItems(c*per+i, 50), stream.BatchProv{}); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	done := make(chan []float64, 1)
	go func() { done <- drainSub(t, sub) }()
	wg.Wait()
	r.Close()
	vals := <-done
	if len(vals) != conns*per {
		t.Fatalf("got %d values, want %d", len(vals), conns*per)
	}
	if got := src.Tuples(); got != conns*per {
		t.Fatalf("Tuples = %d, want %d", got, conns*per)
	}
}

func TestSourceNamesAndName(t *testing.T) {
	r := NewRegistry(Options{})
	r.Source("zeta")
	r.Source("alpha")
	r.Source("alpha") // idempotent
	got := r.SourceNames()
	if len(got) != 2 || got[0] != "alpha" || got[1] != "zeta" {
		t.Fatalf("SourceNames = %v, want [alpha zeta]", got)
	}
}

func TestPublishOnClosedSourceAndRegistry(t *testing.T) {
	r := NewRegistry(Options{})
	s := r.Source("s1")
	r.Close()
	if err := s.PublishProv(dataItems(0, 1), stream.BatchProv{}); !errors.Is(err, fanout.ErrClosed) {
		t.Fatalf("publish on closed source = %v, want ErrClosed", err)
	}
	if err := r.Publish("s1", "t", dataItems(0, 1), stream.BatchProv{}); err == nil {
		t.Fatal("publish on closed registry must fail")
	}
	// Double-close of both the registry and the source is a no-op.
	r.Close()
	s.close()
}

func TestPublishEmptyAndFullyShedBatches(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	r := NewRegistry(Options{MaxIngestPerSec: 1, Clock: clk})
	s := r.Source("s1")
	sub := s.Attach("q")

	if err := s.PublishProv(nil, stream.BatchProv{}); err != nil {
		t.Fatalf("empty publish: %v", err)
	}
	// Burst capacity is one token: the first data tuple drains it, a
	// same-instant follow-up batch sheds entirely and publishes nothing.
	if err := s.PublishProv(dataItems(0, 1), stream.BatchProv{}); err != nil {
		t.Fatal(err)
	}
	if err := s.PublishProv(dataItems(1, 3), stream.BatchProv{}); err != nil {
		t.Fatal(err)
	}
	if got := s.RateShed(); got != 3 {
		t.Fatalf("RateShed = %d, want 3", got)
	}
	if got := s.Tuples(); got != 1 {
		t.Fatalf("Tuples = %d, want 1", got)
	}
	s.close()
	vals := drainSub(t, sub)
	if len(vals) != 1 {
		t.Fatalf("ring carried %d tuples, want 1 (fully-shed batch must publish nothing)", len(vals))
	}
}

func TestSourceMetricsRegistration(t *testing.T) {
	reg := obs.NewRegistry()
	clk := &fakeClock{now: time.Unix(1000, 0)}
	r := NewRegistry(Options{MaxIngestPerSec: 2, Clock: clk, Metrics: reg})
	s := r.Source("sensors")
	if err := s.PublishProv(dataItems(0, 4), stream.BatchProv{}); err != nil { // 2 admitted, 2 shed
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`aq_source_tuples_total{source="sensors"} 2`,
		`aq_source_rate_shed_total{source="sensors"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in exposition:\n%s", want, out)
		}
	}
}
