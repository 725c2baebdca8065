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
// Configuration that is fixed at construction time (EWMA alpha, reservoir
// capacity) is deliberately NOT part of the state: snapshots are only ever
// restored into an instance built from the same query definition, and
// keeping config out of the state means a restored instance can never
// silently change the query's parameters.

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

// GKEntry is one tuple of a Greenwald–Khanna summary as snapshots wrote it
// while a GK sketch kept lateness: a value and the count of observations
// (g) it stands for. Its other fields are not read.
type GKEntry struct {
	V float64 `json:"v"`
	G int64   `json:"g"`
}

// GKState is the legacy snapshot format of a lateness sketch: the summary's
// entries and the values still pending a merge. It is only read, by AddGK.
type GKState struct {
	Entries []GKEntry `json:"entries"`
	Pending []float64 `json:"pending"`
}

// AddGK counts a legacy sketch's observations: each entry's g at its value,
// which bounds them from above, and each pending value in its own bucket.
func (h *LogHist) AddGK(st GKState) {
	for _, e := range st.Entries {
		h.AddN(e.V, e.G)
	}
	for _, v := range st.Pending {
		h.Add(v)
	}
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
