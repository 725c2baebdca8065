package stats

// Reservoir maintains a uniform random sample of fixed capacity over an
// unbounded stream (Vitter's algorithm R). The quality estimator samples
// tuple values this way so that its per-aggregate error models can reason
// about the value distribution without retaining the stream.
type Reservoir struct {
	cap  int
	n    int64
	data []float64
	rng  *RNG
}

// NewReservoir returns a reservoir holding at most capacity samples, drawing
// randomness from the given RNG. It panics if capacity <= 0 or rng is nil.
func NewReservoir(capacity int, rng *RNG) *Reservoir {
	if capacity <= 0 {
		panic("stats: reservoir capacity must be positive")
	}
	if rng == nil {
		panic("stats: reservoir needs an RNG")
	}
	return &Reservoir{cap: capacity, rng: rng, data: make([]float64, 0, capacity)}
}

// Add offers x to the sample.
func (r *Reservoir) Add(x float64) {
	r.n++
	if len(r.data) < r.cap {
		r.data = append(r.data, x)
		return
	}
	// Replace a random element with probability cap/n.
	if j := r.rng.Int63() % r.n; j < int64(r.cap) {
		r.data[j] = x
	}
}

// Len returns the current sample size (min(cap, N)).
func (r *Reservoir) Len() int { return len(r.data) }

// Sample returns the current sample. The returned slice aliases internal
// storage; callers must not retain it across Add calls.
func (r *Reservoir) Sample() []float64 { return r.data }
