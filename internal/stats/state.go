package stats

// This file exports and restores the internal state of the statistics
// primitives for crash-consistent snapshots (internal/durable). Every
// State/Restore pair is exact: restoring a state into a fresh instance and
// feeding it the same suffix of observations produces bit-identical outputs
// to the uninterrupted original. That property is what lets the recovery
// path replay a journal suffix and land on the same emitted results, and it
// is enforced by continuation tests in state_test.go and by the DST crash
// oracle.
//
// Configuration that is fixed at construction time (GK epsilon, EWMA alpha,
// reservoir capacity, P2 target quantile) is deliberately NOT part of the
// state: snapshots are only ever restored into an instance built from the
// same query definition, and keeping config out of the state means a
// restored instance can never silently change the query's parameters.

// RNGState is the exported state of an RNG.
type RNGState struct {
	S         [4]uint64 `json:"s"`
	Spare     float64   `json:"spare,omitempty"`
	HaveSpare bool      `json:"haveSpare,omitempty"`
}

// State exports the generator state.
func (r *RNG) State() RNGState {
	return RNGState{S: r.s, Spare: r.spare, HaveSpare: r.haveSpare}
}

// Restore sets the generator to a previously exported state.
func (r *RNG) Restore(st RNGState) {
	r.s = st.S
	r.spare = st.Spare
	r.haveSpare = st.HaveSpare
}

// WelfordState is the exported state of a Welford tracker.
type WelfordState struct {
	N    int64   `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
	Max  float64 `json:"max"`
}

// State exports the tracker state.
func (w *Welford) State() WelfordState {
	return WelfordState{N: w.n, Mean: w.mean, M2: w.m2, Max: w.max}
}

// Restore sets the tracker to a previously exported state.
func (w *Welford) Restore(st WelfordState) {
	w.n, w.mean, w.m2, w.max = st.N, st.Mean, st.M2, st.Max
}

// EWMAState is the exported state of an EWMA. The smoothing factor is
// construction-time configuration and is not part of the state.
type EWMAState struct {
	Value float64 `json:"value"`
	Init  bool    `json:"init"`
}

// State exports the average's state.
func (e *EWMA) State() EWMAState { return EWMAState{Value: e.value, Init: e.init} }

// Restore sets the average to a previously exported state, keeping alpha.
func (e *EWMA) Restore(st EWMAState) { e.value, e.init = st.Value, st.Init }

// ReservoirState is the exported state of a Reservoir. Capacity and the
// RNG are construction-time configuration (the estimator snapshots its RNG
// separately, since the reservoir shares it).
type ReservoirState struct {
	N    int64     `json:"n"`
	Data []float64 `json:"data"`
}

// State exports the sample. The returned slice is a copy.
func (r *Reservoir) State() ReservoirState {
	data := make([]float64, len(r.data))
	copy(data, r.data)
	return ReservoirState{N: r.n, Data: data}
}

// Restore sets the reservoir to a previously exported state. It panics if
// the saved sample exceeds the reservoir's capacity (state from a
// differently-configured query).
func (r *Reservoir) Restore(st ReservoirState) {
	if len(st.Data) > r.cap {
		panic("stats: reservoir state exceeds capacity")
	}
	r.n = st.N
	r.data = append(r.data[:0], st.Data...)
}

// GKEntry is one exported Greenwald–Khanna summary tuple.
type GKEntry struct {
	V     float64 `json:"v"`
	G     int64   `json:"g"`
	Delta int64   `json:"delta"`
}

// GKState is the exported state of a GK sketch. Pending is exported
// verbatim rather than flushed: flushing at snapshot time would compress
// the summary earlier than the uninterrupted run would, changing its future
// evolution and breaking exact replay.
type GKState struct {
	N       int64     `json:"n"`
	Entries []GKEntry `json:"entries"`
	Pending []float64 `json:"pending,omitempty"`
}

// State exports the sketch state without side effects.
func (g *GK) State() GKState {
	st := GKState{N: g.n}
	st.Entries = make([]GKEntry, len(g.entries))
	for i, e := range g.entries {
		st.Entries[i] = GKEntry{V: e.v, G: e.g, Delta: e.delta}
	}
	if len(g.pending) > 0 {
		st.Pending = append([]float64(nil), g.pending...)
	}
	return st
}

// Restore sets the sketch to a previously exported state, keeping epsilon.
func (g *GK) Restore(st GKState) {
	g.n, g.flushAt = st.N, flushThreshold(g.eps)
	g.entries = make([]gkEntry, len(st.Entries))
	for i, e := range st.Entries {
		g.entries[i] = gkEntry{v: e.V, g: e.G, delta: e.Delta}
	}
	g.pending = append(g.pending[:0], st.Pending...)
}

// LogHistState is the exported state of a LogHist: its bucket counts up to
// the highest one holding a value, and the largest value.
type LogHistState struct {
	Counts []int64 `json:"counts"`
	Max    float64 `json:"max"`
}

// State exports the histogram state. The returned slice is a copy.
func (h *LogHist) State() LogHistState {
	return LogHistState{Counts: append([]int64{}, h.counts...), Max: h.max}
}

// Restore sets the histogram to a previously exported state.
func (h *LogHist) Restore(st LogHistState) {
	*h = LogHist{counts: append([]int64{}, st.Counts...), stale: len(st.Counts), max: st.Max}
	for _, c := range st.Counts {
		h.n += c
	}
}
