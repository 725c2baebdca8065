package window

import (
	"sort"

	"repro/internal/stream"
)

// KeyedResult is one emitted per-key window result.
type KeyedResult struct {
	Key uint64
	Result
}

// KeyedOp evaluates one windowed aggregate per key (GROUP BY key): each
// key gets an independent window lifecycle, but all keys share the
// operator's event-time clock, so a window [s, e) closes for every key
// when the clock passes e — matching the semantics of a partitioned
// continuous query downstream of one disorder handler.
//
// Keys emit results only for windows in which they received at least one
// tuple plus the empty gaps between their own occupied windows (the same
// contiguity rule as Op, applied per key).
//
// Emission order is canonical: within one input step (one tuple of
// ObserveRun, or one Flush call) results are ordered by key, ascending,
// with a key's own results keeping their operator-emission order, so the
// output sequence is a pure function of the released tuple sequence (no
// map-iteration dependence).
type KeyedOp struct {
	spec      Spec
	agg       Factory
	policy    LatePolicy
	refineFor stream.Time
	ops       map[uint64]*Op
	keys      []uint64 // every key with state; sorted unless keysDirty
	keysDirty bool
	clock     stream.Time
	started   bool
	scratch   []Result
	blockBuf  []KeyedResult // rotation scratch for mergeOwnBlock
	feedback  stream.Time   // every key's operator's (SetFeedback)
	finals    []Final       // the keys' reports, in the order they made them
	// res collects the call's results, for the reason Op.res does: a key's
	// operator may panic after other keys' have emitted. (What the panicking
	// operator itself had emitted comes out of its own next call, one slide on
	// at the latest.)
	res []KeyedResult
}

// NewKeyedOp returns a per-key window operator. It panics on an invalid
// spec.
func NewKeyedOp(spec Spec, agg Factory, policy LatePolicy, refineFor stream.Time) *KeyedOp {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	return &KeyedOp{
		spec: spec, agg: agg, policy: policy, refineFor: refineFor,
		ops: make(map[uint64]*Op),
	}
}

// SetFeedback is Op.SetFeedback for every key's operator: each (key, window)
// is reported on its own. Call it before the first tuple.
func (o *KeyedOp) SetFeedback(horizon stream.Time) { o.feedback = horizon }

// Finals appends the (key, window) reports made since the last call to out,
// in the order the keys' operators made them: a function of the released
// tuple sequence, like the results.
func (o *KeyedOp) Finals(out []Final) []Final {
	out = append(out, o.finals...)
	o.finals = o.finals[:0]
	return out
}

// observe feeds one tuple, leaving the emitted per-key results in o.res. A
// clock advance that closes a window (crosses a slide boundary) also closes
// that window for every other key; advances within the same slide touch
// only the tuple's own key, since no other key could emit anything.
func (o *KeyedOp) observe(t stream.Tuple, now stream.Time) {
	op, ok := o.ops[t.Key]
	if !ok {
		op = NewOp(o.spec, o.agg, o.policy, o.refineFor)
		op.SetFeedback(o.feedback)
		o.ops[t.Key] = op
		o.keys = append(o.keys, t.Key)
		o.keysDirty = true
	}
	base := len(o.res)
	o.scratch = op.Observe(t, now, o.scratch[:0])
	o.appendKeyedFrom(t.Key, op)
	if !o.started || t.TS > o.clock {
		crossed := !o.started || o.spec.LastClosed(t.TS) != o.spec.LastClosed(o.clock)
		ownLen := len(o.res) - base
		o.clock = t.TS
		o.started = true
		if crossed {
			o.advanceOthers(t.Key, now)
			// The tuple's own results were appended first; rotate the block
			// into the already key-sorted advanceOthers segment to restore
			// the canonical by-key order for this step.
			o.mergeOwnBlock(o.res[base:], ownLen)
		}
	}
}

// ObserveRun feeds ts[*pos:] with their arrival-time positions nows, one
// step per tuple — each tuple is an input step of its own, which is what
// the canonical emission order is defined over — moving *pos past a tuple
// before touching it (see Op.ObserveRun).
func (o *KeyedOp) ObserveRun(ts []stream.Tuple, nows []stream.Time, pos *int, out []KeyedResult) []KeyedResult {
	for i := *pos; i < len(ts); i = *pos {
		*pos = i + 1
		o.observe(ts[i], nows[i])
	}
	return o.Drain(out)
}

// Drain appends to out what a call that ended in a panic had emitted before
// it; every call that returns has done so itself.
func (o *KeyedOp) Drain(out []KeyedResult) []KeyedResult {
	out = append(out, o.res...)
	o.res = o.res[:0]
	return out
}

// sortedKeys returns every key with state in ascending order, re-sorting
// lazily after new keys appear.
func (o *KeyedOp) sortedKeys() []uint64 {
	if o.keysDirty {
		sort.Slice(o.keys, func(i, j int) bool { return o.keys[i] < o.keys[j] })
		o.keysDirty = false
	}
	return o.keys
}

func (o *KeyedOp) advanceOthers(except uint64, now stream.Time) {
	for _, key := range o.sortedKeys() {
		if key == except {
			continue
		}
		op := o.ops[key]
		o.scratch = op.Advance(o.clock, now, o.scratch[:0])
		o.appendKeyedFrom(key, op)
	}
}

// Flush emits every open window of every key, in key order.
func (o *KeyedOp) Flush(now stream.Time, out []KeyedResult) []KeyedResult {
	for _, key := range o.sortedKeys() {
		op := o.ops[key]
		o.scratch = op.Flush(now, o.scratch[:0])
		o.appendKeyedFrom(key, op)
	}
	return o.Drain(out)
}

// mergeOwnBlock restores by-key order for one step's segment where the
// own-key block seg[:k] (all one key) precedes the key-sorted remainder
// produced by advanceOthers. It rotates the block past the remainder's
// smaller-keyed prefix — O(len) moves instead of a stable sort, and the
// block keeps its operator-emission order.
func (o *KeyedOp) mergeOwnBlock(seg []KeyedResult, k int) {
	if k == 0 || k == len(seg) {
		return
	}
	key := seg[0].Key
	rest := seg[k:]
	// advanceOthers excluded the own key, so every rest key differs.
	p := sort.Search(len(rest), func(i int) bool { return rest[i].Key > key })
	if p == 0 {
		return
	}
	o.blockBuf = append(o.blockBuf[:0], seg[:k]...)
	copy(seg, rest[:p])
	copy(seg[p:], o.blockBuf)
}

// appendKeyedFrom collects what key's operator op emitted and reported in
// the call just made.
func (o *KeyedOp) appendKeyedFrom(key uint64, op *Op) {
	for _, r := range o.scratch {
		o.res = append(o.res, KeyedResult{Key: key, Result: r})
	}
	if o.feedback > 0 {
		o.finals = op.Finals(o.finals)
	}
}

// Stats aggregates the per-key operator counters.
func (o *KeyedOp) Stats() OpStats {
	var s OpStats
	for _, op := range o.ops {
		os := op.Stats()
		s.TuplesIn += os.TuplesIn
		s.LateTuples += os.LateTuples
		s.LateDrops += os.LateDrops
		s.LateRefined += os.LateRefined
		s.Emitted += os.Emitted
		s.Refinements += os.Refinements
		s.EmptyEmitted += os.EmptyEmitted
		s.EmitFailed += os.EmitFailed
	}
	return s
}
