package sim

import (
	"repro/internal/stats"
	"repro/internal/stream"
)

// Node receives tuples at simulation time.
type Node interface {
	Receive(k *Kernel, t stream.Tuple)
}

// Collector terminates a path and records tuples with their simulated
// arrival time.
type Collector struct {
	Tuples []stream.Tuple
}

// Receive implements Node.
func (c *Collector) Receive(k *Kernel, t stream.Tuple) {
	t.Arrival = k.Now()
	c.Tuples = append(c.Tuples, t)
}

// LinkConfig describes one network link.
type LinkConfig struct {
	// Propagation is the fixed one-way latency.
	Propagation stream.Time
	// ServiceMean is the mean per-packet transmission (service) time; the
	// link serves packets FIFO at this rate. Zero means infinitely fast.
	ServiceMean float64
	// ServiceJitter adds an exponential jitter with the given mean to
	// each packet's service time (processing variation).
	ServiceJitter float64
}

// Link is a FIFO queue + server with propagation delay. Queueing delay
// emerges when arrivals exceed the service rate.
type Link struct {
	cfg       LinkConfig
	next      Node
	rng       *stats.RNG
	busyUntil stream.Time

	// Delivered counts packets; QueueDelaySum accumulates emergent
	// queueing delay for diagnostics.
	Delivered     int64
	QueueDelaySum stream.Time
}

// NewLink returns a link forwarding to next. It panics on a nil next node.
func NewLink(cfg LinkConfig, next Node, rng *stats.RNG) *Link {
	if next == nil {
		panic("sim: link needs a next node")
	}
	return &Link{cfg: cfg, next: next, rng: rng}
}

// Receive implements Node: the packet is queued, served FIFO, then
// delivered after the propagation delay.
func (l *Link) Receive(k *Kernel, t stream.Tuple) {
	service := l.cfg.ServiceMean
	if l.cfg.ServiceJitter > 0 && l.rng != nil {
		service += l.rng.ExpFloat64() * l.cfg.ServiceJitter
	}
	start := k.Now()
	if l.busyUntil > start {
		l.QueueDelaySum += l.busyUntil - start
		start = l.busyUntil
	}
	finish := start + stream.Time(service)
	l.busyUntil = finish
	l.Delivered++
	deliverAt := finish + l.cfg.Propagation
	next := l.next
	k.Schedule(deliverAt, func() { next.Receive(k, t) })
}

// Multipath forwards each packet over one of several links, chosen
// randomly with the given weights. Because the paths have different
// latencies, packets overtake each other — the mechanism behind real-world
// stream disorder.
type Multipath struct {
	weights []float64
	total   float64
	links   []*Link
	rng     *stats.RNG
}

// NewMultipath returns a weighted random path selector. It panics on
// mismatched or empty inputs or non-positive total weight.
func NewMultipath(weights []float64, links []*Link, rng *stats.RNG) *Multipath {
	if len(weights) == 0 || len(weights) != len(links) {
		panic("sim: multipath needs equal, non-empty weights and links")
	}
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("sim: negative multipath weight")
		}
		total += w
	}
	if total <= 0 {
		panic("sim: multipath total weight must be positive")
	}
	return &Multipath{weights: weights, total: total, links: links, rng: rng}
}

// Receive implements Node.
func (m *Multipath) Receive(k *Kernel, t stream.Tuple) {
	u := m.rng.Float64() * m.total
	for i, w := range m.weights {
		if u < w || i == len(m.weights)-1 {
			m.links[i].Receive(k, t)
			return
		}
		u -= w
	}
}

// Transport pushes tuples through the simulated network (each injected at
// its event time) and returns them in (simulated) arrival order. It is a
// drop-in alternative to sampling delays from an analytic model. The network
// is the canonical two-path topology of the experiments: a fast path taken
// by 95% of the packets and a slow congested path taken by the rest, with
// emergent queueing under load — disorder comparable to the heavy-tailed
// analytic models. seed draws the path choices and service times.
func Transport(events []stream.Tuple, seed uint64) []stream.Tuple {
	var k Kernel
	rng := stats.NewRNG(seed ^ 0xda3e39cb94b95bdb)
	col := &Collector{}
	fast := NewLink(LinkConfig{Propagation: 20, ServiceMean: 2, ServiceJitter: 2}, col, rng)
	slow := NewLink(LinkConfig{Propagation: 800, ServiceMean: 40, ServiceJitter: 40}, col, rng)
	mp := NewMultipath([]float64{0.95, 0.05}, []*Link{fast, slow}, rng)
	for _, t := range events {
		t := t
		k.Schedule(t.TS, func() { mp.Receive(&k, t) })
	}
	k.Run()
	stream.SortByArrival(col.Tuples)
	return col.Tuples
}
