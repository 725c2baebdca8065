// Package sim is a deterministic discrete-event simulator used as the
// network-testbed substitute: instead of sampling transport delays from a
// closed-form distribution (internal/delay), a simulated network of links
// with finite rate, FIFO queues and multiple paths produces delays that
// emerge from queueing and path choice — including the correlated delay
// bursts and reordering patterns real deployments show.
//
// Determinism: events at equal times fire in schedule order (a sequence
// number breaks ties), and all randomness comes from seeded stats.RNG, so
// a simulation is reproducible bit for bit.
package sim

import "repro/internal/stream"

// event is one scheduled callback.
type event struct {
	at  stream.Time
	seq uint64
	fn  func()
}

// Kernel is the event-driven simulation core. The zero value is ready to
// use.
type Kernel struct {
	heap []event
	now  stream.Time
	seq  uint64
}

// Now returns the current simulation time.
func (k *Kernel) Now() stream.Time { return k.now }

// Schedule registers fn to run at time at. Scheduling in the past (at <
// Now) panics: it would silently reorder causality.
func (k *Kernel) Schedule(at stream.Time, fn func()) {
	if at < k.now {
		panic("sim: scheduling into the past")
	}
	k.seq++
	k.push(event{at: at, seq: k.seq, fn: fn})
}

// Run executes events until none remain.
func (k *Kernel) Run() {
	for len(k.heap) > 0 {
		k.step()
	}
}

func (k *Kernel) step() {
	e := k.pop()
	k.now = e.at
	e.fn()
}

func eventLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (k *Kernel) push(e event) {
	k.heap = append(k.heap, e)
	i := len(k.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(k.heap[i], k.heap[parent]) {
			break
		}
		k.heap[i], k.heap[parent] = k.heap[parent], k.heap[i]
		i = parent
	}
}

func (k *Kernel) pop() event {
	top := k.heap[0]
	n := len(k.heap) - 1
	k.heap[0] = k.heap[n]
	k.heap = k.heap[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(k.heap) && eventLess(k.heap[l], k.heap[smallest]) {
			smallest = l
		}
		if r < len(k.heap) && eventLess(k.heap[r], k.heap[smallest]) {
			smallest = r
		}
		if smallest == i {
			return top
		}
		k.heap[i], k.heap[smallest] = k.heap[smallest], k.heap[i]
		i = smallest
	}
}
