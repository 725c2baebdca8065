// Package fleet is the runtime control plane's bookkeeping core: a
// registry of named ingest sources and the continuous queries attached
// to them. It is the glue between the network edge (internal/netstream
// delivers decoded item batches here) and the fan-out substrate
// (internal/fanout broadcasts each source's stream to its queries):
//
//   - Every named source owns one broadcast ring. TCP connections for
//     that source all publish into the same ring, serialized by the
//     source (the ring is single-producer), so N queries over one
//     source pay one ingest path — the PR 8 fan-out economics extended
//     to network ingest.
//   - Queries attach to a source at runtime via fanout.SubscribeLate:
//     they see the stream from the moment of attachment with a zero
//     shed baseline, and always under the ShedOldest policy — a
//     runtime query must never backpressure the shared ingest path of
//     its neighbours (quality degrades before the fleet stalls, the
//     paper's central trade made multi-tenant).
//   - Per-tenant quotas bound the blast radius of any one tenant: a
//     cap on registered queries (admission control, HTTP 429) and a
//     token-bucket cap on ingest rate (over-rate data tuples are shed
//     at the door and charged to the source's RateShed counter, which
//     the engine folds into AggReport.Shed exactly like ring laps).
//
// A Source implements netstream.Sink, so a netstream.Listener feeds it
// directly once Registry.Open has resolved a connection's hello; the
// registry implements the cql.SourceCatalog interface, so statement
// binding can reject queries over unknown sources before any runner
// spins up.
package fleet

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fanout"
	"repro/internal/netstream"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/stream"
)

// Quotas bounds what one tenant may consume. Zero values mean
// unlimited.
type Quotas struct {
	// MaxQueriesPerTenant caps concurrently registered queries per
	// tenant.
	MaxQueriesPerTenant int
	// MaxIngestPerSec caps data tuples per second per source (token
	// bucket, burst of one second). Heartbeats always pass — progress
	// signals must survive overload or watermarks stall and quality
	// collapses for reasons the quality model cannot see.
	MaxIngestPerSec int
}

// Options configures a Registry.
type Options struct {
	Quotas Quotas
	// Ring is the per-source broadcast ring size in batches (<= 0
	// picks 256).
	Ring int
	// Clock drives the rate limiter; nil means WallClock. The
	// deterministic tests inject a fake.
	Clock resilience.Clock
	// Metrics, when non-nil, registers per-source ingest series
	// (aq_source_tuples_total, aq_source_rate_shed_total) as sources
	// appear.
	Metrics *obs.Registry
}

// Registry tracks sources and queries. Safe for concurrent use.
type Registry struct {
	opts Options

	mu      sync.Mutex
	sources map[string]*Source
	queries map[string]*Query
	byTen   map[string]int // live query count per tenant
	closed  bool
}

// NewRegistry builds an empty registry.
func NewRegistry(opts Options) *Registry {
	if opts.Ring <= 0 {
		opts.Ring = 256
	}
	if opts.Clock == nil {
		opts.Clock = resilience.WallClock{}
	}
	return &Registry{
		opts:    opts,
		sources: make(map[string]*Source),
		queries: make(map[string]*Query),
		byTen:   make(map[string]int),
	}
}

// Source returns the named source, creating it on first use.
func (r *Registry) Source(name string) *Source {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sourceLocked(name)
}

func (r *Registry) sourceLocked(name string) *Source {
	s, ok := r.sources[name]
	if !ok {
		s = &Source{
			ring:  fanout.New(fanout.Options{Ring: r.opts.Ring, BatchCap: netstream.ConnBatch}),
			rate:  r.opts.Quotas.MaxIngestPerSec,
			clock: r.opts.Clock,
		}
		s.lastRefill = r.opts.Clock.Now()
		s.tokens = float64(s.rate) // full bucket: one second of burst
		r.sources[name] = s
		if reg := r.opts.Metrics; reg != nil {
			reg.CounterFunc("aq_source_tuples_total",
				"Data tuples admitted to the source's broadcast ring.",
				func() float64 { return float64(s.Tuples()) }, obs.L("source", name))
			reg.CounterFunc("aq_source_rate_shed_total",
				"Data tuples dropped by the per-source ingest rate limiter.",
				func() float64 { return float64(s.RateShed()) }, obs.L("source", name))
		}
	}
	return s
}

// HasSource implements cql.SourceCatalog: query binding consults it to
// reject statements over sources nothing has registered or fed.
func (r *Registry) HasSource(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.sources[name]
	return ok
}

// SourceNames lists registered sources, sorted.
func (r *Registry) SourceNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.sources))
	for n := range r.sources {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Open resolves the named source for one ingest connection, creating it
// on first use: the connection then moves batches through the source
// itself (Get, PublishOwned — netstream.Sink) and the registry is out of
// its per-batch path. A closed registry opens nothing.
func (r *Registry) Open(source string) (*Source, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, fmt.Errorf("fleet: registry closed")
	}
	return r.sourceLocked(source), nil
}

// Publish is Open plus PublishProv for callers that own their slice (the
// DST replay, tests, the benchmark's layer replay): items is copied, never
// retained. prov is the batch's wire provenance (zero for v1 producers);
// it rides the ring so consumers can attribute emission latency back to
// the client's send time.
func (r *Registry) Publish(source, tenant string, items []stream.Item, prov stream.BatchProv) error {
	s, err := r.Open(source)
	if err != nil {
		return err
	}
	return s.PublishProv(items, prov)
}

// Query is one registered runtime query's control-plane entry. The
// engine half (runner goroutine, metrics, durability) lives in
// cmd/aqserver; the registry only tracks identity and the stop hook.
type Query struct {
	Name      string
	Tenant    string
	Statement string
	// Stop tears the runner down (cancel pump, finish, unsubscribe).
	// Called exactly once, by Registry.RemoveQuery or Registry.Close.
	Stop func()
}

// AddQuery admits a query under the per-tenant quota. It returns
// ErrQuotaExceeded when the tenant is at its cap and ErrDuplicate when
// the name is taken.
func (r *Registry) AddQuery(q *Query) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return fmt.Errorf("fleet: registry closed")
	}
	if _, ok := r.queries[q.Name]; ok {
		return &DuplicateError{Name: q.Name}
	}
	if max := r.opts.Quotas.MaxQueriesPerTenant; max > 0 && r.byTen[q.Tenant] >= max {
		return &QuotaError{Tenant: q.Tenant, Limit: max}
	}
	r.queries[q.Name] = q
	r.byTen[q.Tenant]++
	return nil
}

// Admissible reports whether AddQuery for (name, tenant) would pass the
// duplicate and quota checks right now, without reserving anything. It
// lets callers skip building expensive per-query state (durable-log
// recovery, ring attachment) for registrations that would be rejected;
// AddQuery remains the authoritative check under races.
func (r *Registry) Admissible(name, tenant string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return fmt.Errorf("fleet: registry closed")
	}
	if _, ok := r.queries[name]; ok {
		return &DuplicateError{Name: name}
	}
	if max := r.opts.Quotas.MaxQueriesPerTenant; max > 0 && r.byTen[tenant] >= max {
		return &QuotaError{Tenant: tenant, Limit: max}
	}
	return nil
}

// Query returns the named query entry, or nil.
func (r *Registry) Query(name string) *Query {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.queries[name]
}

// QueryNames lists registered queries, sorted.
func (r *Registry) QueryNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.queries))
	for n := range r.queries {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Tenants returns the live query count per tenant (the control plane's
// per-tenant rollup input). The empty tenant appears under "".
func (r *Registry) Tenants() map[string]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int, len(r.byTen))
	for t, n := range r.byTen {
		out[t] = n
	}
	return out
}

// RemoveQuery stops and deregisters the named query. It reports
// whether the query existed.
func (r *Registry) RemoveQuery(name string) bool {
	r.mu.Lock()
	q, ok := r.queries[name]
	if ok {
		delete(r.queries, name)
		if r.byTen[q.Tenant]--; r.byTen[q.Tenant] == 0 {
			delete(r.byTen, q.Tenant)
		}
	}
	r.mu.Unlock()
	if ok && q.Stop != nil {
		q.Stop()
	}
	return ok
}

// Close stops every query and closes every source ring (consumers see
// a clean end of stream). The registry rejects publishes and
// admissions afterwards.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	qs := make([]*Query, 0, len(r.queries))
	for _, q := range r.queries {
		qs = append(qs, q)
	}
	r.queries = make(map[string]*Query)
	r.byTen = make(map[string]int)
	srcs := make([]*Source, 0, len(r.sources))
	for _, s := range r.sources {
		srcs = append(srcs, s)
	}
	r.mu.Unlock()
	for _, s := range srcs {
		s.close()
	}
	for _, q := range qs {
		if q.Stop != nil {
			q.Stop()
		}
	}
}

// QuotaError reports a tenant at its query cap (HTTP 429 upstairs).
type QuotaError struct {
	Tenant string
	Limit  int
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("fleet: tenant %q at query quota (%d)", e.Tenant, e.Limit)
}

// DuplicateError reports a query name collision (HTTP 409 upstairs).
type DuplicateError struct{ Name string }

func (e *DuplicateError) Error() string {
	return fmt.Sprintf("fleet: query %q already registered", e.Name)
}

// Source is one named ingest stream: a broadcast ring fed by any
// number of network connections (serialized here — the ring is
// single-producer) and consumed by any number of runtime queries.
type Source struct {
	ring  *fanout.Broadcast
	clock resilience.Clock

	// pubMu serializes publishes from concurrent connections and the
	// token bucket they refill.
	pubMu      sync.Mutex
	rate       int     // data tuples/sec; 0 = unlimited
	tokens     float64 // current bucket level
	lastRefill time.Time
	closed     bool

	tuples   atomic.Int64 // data tuples admitted to the ring
	rateShed atomic.Int64 // data tuples dropped by the rate limiter
}

// Tuples reports data tuples admitted to the ring.
func (s *Source) Tuples() int64 { return s.tuples.Load() }

// RateShed reports data tuples dropped by the per-source rate limiter.
// The runtime queries fold it into their shed totals: quota sheds are
// quality loss exactly like ring laps and overload drops.
func (s *Source) RateShed() int64 { return s.rateShed.Load() }

// Subscribers reports the ring subscriptions attached to the source and not
// yet detached.
func (s *Source) Subscribers() int { return s.ring.Subscribers() }

// Attach subscribes a runtime query to the source at the current
// frontier under ShedOldest (see the package comment for why runtime
// queries never get Block).
func (s *Source) Attach(query string) *fanout.Sub {
	return s.ring.SubscribeLate(query, fanout.ShedOldest)
}

// PublishProv admits a copy of items: the input slice is never retained.
func (s *Source) PublishProv(items []stream.Item, prov stream.BatchProv) error {
	return s.PublishOwned(append(s.Get(), items...), prov)
}

// Get lends an empty ring-pooled batch to fill and hand to PublishOwned.
func (s *Source) Get() []stream.Item { return s.ring.Get() }

// PublishOwned admits one batch the caller gives up (one from Get comes
// back to the ring's pool): the rate limiter sheds over-rate data tuples
// (heartbeats always pass) by compacting the slice in place, and what
// remains is published as is, with the batch's wire provenance.
func (s *Source) PublishOwned(items []stream.Item, prov stream.BatchProv) error {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	if s.closed {
		return fanout.ErrClosed
	}
	var data int64
	if s.rate > 0 {
		now := s.clock.Now()
		s.tokens += now.Sub(s.lastRefill).Seconds() * float64(s.rate)
		if cap := float64(s.rate); s.tokens > cap {
			s.tokens = cap
		}
		s.lastRefill = now
		admitted := items[:0]
		for i := range items {
			if !items[i].Heartbeat {
				if s.tokens < 1 {
					continue
				}
				s.tokens--
				data++
			}
			admitted = append(admitted, items[i])
		}
		if shed := len(items) - len(admitted); shed > 0 {
			s.rateShed.Add(int64(shed))
		}
		items = admitted
	} else {
		for i := range items {
			if !items[i].Heartbeat {
				data++
			}
		}
	}
	if len(items) == 0 {
		return nil
	}
	if err := s.ring.PublishProv(context.Background(), items, prov); err != nil {
		return err
	}
	s.tuples.Add(data)
	return nil
}

// close publishes the end-of-stream marker so every attached query
// drains and finishes cleanly.
func (s *Source) close() {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.ring.Close()
}
