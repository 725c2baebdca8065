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

func TestQueryQuotaPerTenant(t *testing.T) {
	r := NewRegistry(Options{Quotas: Quotas{MaxQueriesPerTenant: 2}})
	add := func(name, tenant string) error {
		return r.AddQuery(&Query{Name: name, Tenant: tenant})
	}
	if err := add("q1", "acme"); err != nil {
		t.Fatal(err)
	}
	if err := add("q2", "acme"); err != nil {
		t.Fatal(err)
	}
	err := add("q3", "acme")
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Tenant != "acme" || qe.Limit != 2 {
		t.Fatalf("third query: err=%v, want QuotaError{acme,2}", err)
	}
	// Another tenant is unaffected.
	if err := add("q3", "other"); err != nil {
		t.Fatal(err)
	}
	// Duplicate names collide across tenants.
	var de *DuplicateError
	if err := add("q1", "other"); !errors.As(err, &de) {
		t.Fatalf("duplicate name: err=%v, want DuplicateError", err)
	}
	// Removing frees the slot.
	stopped := false
	r.Query("q2").Stop = func() { stopped = true }
	if !r.RemoveQuery("q2") {
		t.Fatal("RemoveQuery(q2) = false")
	}
	if !stopped {
		t.Fatal("RemoveQuery did not invoke Stop")
	}
	if r.RemoveQuery("q2") {
		t.Fatal("second RemoveQuery(q2) = true")
	}
	if err := add("q4", "acme"); err != nil {
		t.Fatalf("after removal: %v", err)
	}
	got := r.QueryNames()
	want := []string{"q1", "q3", "q4"}
	if len(got) != len(want) {
		t.Fatalf("QueryNames() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("QueryNames() = %v, want %v", got, want)
		}
	}
}

func TestRateLimiterShedsDataKeepsHeartbeats(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	r := NewRegistry(Options{Quotas: Quotas{MaxIngestPerSec: 100}, Clock: clk})
	src := r.Source("s1")
	sub := src.Attach("q1")

	// Burst capacity is one second of rate: 150 data tuples against a
	// full 100-token bucket admits 100 and sheds 50. The interleaved
	// heartbeat always passes.
	batch := append(dataItems(0, 150), stream.HeartbeatItem(999))
	if err := src.Publish(batch); err != nil {
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
	if err := src.Publish(dataItems(200, 60)); err != nil {
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

func TestCloseEndsStreamsAndStopsQueries(t *testing.T) {
	r := NewRegistry(Options{})
	sub := r.Source("s1").Attach("q1")
	stopped := 0
	if err := r.AddQuery(&Query{Name: "q1", Tenant: "t", Stop: func() { stopped++ }}); err != nil {
		t.Fatal(err)
	}
	if err := r.Publish("s1", "t", dataItems(0, 3), stream.BatchProv{}); err != nil {
		t.Fatal(err)
	}
	r.Close()
	r.Close() // idempotent
	if stopped != 1 {
		t.Fatalf("Stop ran %d times, want 1", stopped)
	}
	if vals := drainSub(t, sub); len(vals) != 3 {
		t.Fatalf("consumer saw %d values, want 3 then clean end", len(vals))
	}
	if err := r.Publish("s1", "t", dataItems(0, 1), stream.BatchProv{}); err == nil {
		t.Fatal("Publish after Close should fail")
	}
	if err := r.AddQuery(&Query{Name: "q2", Tenant: "t"}); err == nil {
		t.Fatal("AddQuery after Close should fail")
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
				if err := src.Publish(dataItems(c*per+i, 50)); err != nil {
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

func TestAdmissiblePrecheckMatchesAddQuery(t *testing.T) {
	r := NewRegistry(Options{Quotas: Quotas{MaxQueriesPerTenant: 1}})
	if err := r.Admissible("q1", "acme"); err != nil {
		t.Fatalf("empty registry: %v", err)
	}
	if err := r.AddQuery(&Query{Name: "q1", Tenant: "acme"}); err != nil {
		t.Fatal(err)
	}
	var de *DuplicateError
	if err := r.Admissible("q1", "other"); !errors.As(err, &de) {
		t.Fatalf("duplicate name: got %v, want DuplicateError", err)
	}
	var qe *QuotaError
	if err := r.Admissible("q2", "acme"); !errors.As(err, &qe) {
		t.Fatalf("tenant at quota: got %v, want QuotaError", err)
	}
	if err := r.Admissible("q2", "other"); err != nil {
		t.Fatalf("other tenant under quota: %v", err)
	}
	// Precheck reserves nothing: the slot is still takeable.
	if err := r.AddQuery(&Query{Name: "q2", Tenant: "other"}); err != nil {
		t.Fatal(err)
	}
	r.Close()
	if err := r.Admissible("q3", "other"); err == nil {
		t.Fatal("closed registry: want error")
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
	if n := r.Source("alpha").Name(); n != "alpha" {
		t.Fatalf("Name = %q", n)
	}
}

func TestTenantsRollup(t *testing.T) {
	r := NewRegistry(Options{})
	for _, q := range []*Query{
		{Name: "a1", Tenant: "acme"},
		{Name: "a2", Tenant: "acme"},
		{Name: "b1", Tenant: "beta"},
		{Name: "c1"}, // empty tenant rolls up under ""
	} {
		if err := r.AddQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	got := r.Tenants()
	if len(got) != 3 || got["acme"] != 2 || got["beta"] != 1 || got[""] != 1 {
		t.Fatalf("Tenants = %v", got)
	}
	// The map is a copy: mutating it must not corrupt the registry.
	got["acme"] = 99
	if r.Tenants()["acme"] != 2 {
		t.Fatal("Tenants returned a live reference")
	}
	// Removal drains the count; the last query of a tenant deletes the
	// entry entirely.
	r.RemoveQuery("a1")
	r.RemoveQuery("b1")
	got = r.Tenants()
	if got["acme"] != 1 {
		t.Fatalf("acme = %d after removal, want 1", got["acme"])
	}
	if _, ok := got["beta"]; ok {
		t.Fatalf("beta lingers after its last query: %v", got)
	}
}

func TestAdmissionErrorStrings(t *testing.T) {
	qe := &QuotaError{Tenant: "acme", Limit: 2}
	if s := qe.Error(); s != `fleet: tenant "acme" at query quota (2)` {
		t.Fatalf("QuotaError = %q", s)
	}
	de := &DuplicateError{Name: "q1"}
	if s := de.Error(); s != `fleet: query "q1" already registered` {
		t.Fatalf("DuplicateError = %q", s)
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
	if err := r.AddQuery(&Query{Name: "late"}); err == nil {
		t.Fatal("admission on closed registry must fail")
	}
	if err := r.Admissible("late", "t"); err == nil {
		t.Fatal("admissible on closed registry must fail")
	}
	// Double-close of both the registry and the source is a no-op.
	r.Close()
	s.close()
}

func TestPublishEmptyAndFullyShedBatches(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	r := NewRegistry(Options{Quotas: Quotas{MaxIngestPerSec: 1}, Clock: clk})
	s := r.Source("s1")
	sub := s.Attach("q")

	if err := s.Publish(nil); err != nil {
		t.Fatalf("empty publish: %v", err)
	}
	// Burst capacity is one token: the first data tuple drains it, a
	// same-instant follow-up batch sheds entirely and publishes nothing.
	if err := s.Publish(dataItems(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Publish(dataItems(1, 3)); err != nil {
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

func TestRemoveQueryWithoutStopHook(t *testing.T) {
	r := NewRegistry(Options{})
	if err := r.AddQuery(&Query{Name: "bare", Tenant: "t"}); err != nil {
		t.Fatal(err)
	}
	if !r.RemoveQuery("bare") {
		t.Fatal("existing query not removed")
	}
	if r.RemoveQuery("bare") {
		t.Fatal("second removal reported success")
	}
	if r.Query("bare") != nil {
		t.Fatal("query still resolvable")
	}
}

func TestSourceMetricsRegistration(t *testing.T) {
	reg := obs.NewRegistry()
	clk := &fakeClock{now: time.Unix(1000, 0)}
	r := NewRegistry(Options{Quotas: Quotas{MaxIngestPerSec: 2}, Clock: clk, Metrics: reg})
	s := r.Source("sensors")
	if err := s.Publish(dataItems(0, 4)); err != nil { // 2 admitted, 2 shed
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
