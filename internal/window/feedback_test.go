package window

import (
	"testing"

	"repro/internal/stats"
	"repro/internal/stream"
)

// feedbackStream is 100 tuples/s of event time with exponential delays of
// mean 300 ms, in arrival order as a K-slack of 200 ms would release them
// (sorted, a tuple more than the slack late passed straight through): a few
// percent of stragglers land in windows already emitted.
func feedbackStream(n int, seed uint64) []stream.Tuple {
	rng := stats.NewRNG(seed)
	ts := make([]stream.Tuple, n)
	for i := range ts {
		at := stream.Time(i * 10)
		ts[i] = stream.Tuple{TS: at, Arrival: at + stream.Time(rng.ExpFloat64()*300), Seq: uint64(i), Value: float64(rng.Intn(1000))}
	}
	sortByArrival(ts)
	var out, held []stream.Tuple
	var clock stream.Time
	for _, t := range ts {
		clock = max(clock, t.TS)
		if t.TS <= clock-200 {
			out = append(out, t)
		} else {
			held = append(held, t)
		}
		sortByTS(held)
		for len(held) > 0 && held[0].TS <= clock-200 {
			out, held = append(out, held[0]), held[1:]
		}
	}
	return append(out, held...)
}

func sortByArrival(ts []stream.Tuple) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j].Arrival < ts[j-1].Arrival; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}

func sortByTS(ts []stream.Tuple) {
	for i := len(ts) - 1; i > 0 && ts[i].TS < ts[i-1].TS; i-- {
		ts[i], ts[i-1] = ts[i-1], ts[i]
	}
}

// TestFeedbackLeavesOutputAlone: keeping emitted windows for a feedback
// horizon and adding the stragglers to them changes nothing an operator
// delivers — not a DropLate result, not a RefineLate refinement, not a
// counter — and every window with a tuple is reported once, in order, with
// its emitted value and every tuple it got up to the horizon.
func TestFeedbackLeavesOutputAlone(t *testing.T) {
	ts := feedbackStream(20_000, 3)
	spec := Spec{Size: 1000, Slide: 250}
	for _, policy := range []LatePolicy{DropLate, RefineLate} {
		for _, refineFor := range []stream.Time{0, 500, 8000} {
			plain, fed := NewOp(spec, Sum(), policy, refineFor), NewOp(spec, Sum(), policy, refineFor)
			fed.SetFeedback(2000)
			var want, got []Result
			var fin []Final
			for _, tp := range ts {
				want = plain.Observe(tp, tp.Arrival, want)
				got = fed.Observe(tp, tp.Arrival, got)
				fin = fed.Finals(fin)
			}
			requireSameBits(t, policy.String()+" results", want, got)
			if plain.Stats() != fed.Stats() {
				t.Fatalf("%s: stats %+v, without feedback %+v", policy, fed.Stats(), plain.Stats())
			}
			// The reference: each window's tuples, every one released before
			// the clock passed end+2000.
			var clock stream.Time
			full := map[int64]int64{}
			emitted := map[int64]float64{}
			for _, r := range Primary(want) {
				emitted[r.Idx] = r.Value
			}
			for _, tp := range ts {
				first, last := spec.WindowsFor(tp.TS)
				for idx := first; idx <= last; idx++ {
					if _, end := spec.Bounds(idx); end+2000 > clock {
						full[idx] += int64(tp.Value)
					}
				}
				clock = max(clock, tp.TS)
			}
			if len(fin) < 500 {
				t.Fatalf("%s: %d windows reported", policy, len(fin))
			}
			for i, f := range fin {
				if i > 0 && f.Idx != fin[i-1].Idx+1 {
					t.Fatalf("%s: report %d is window %d after %d", policy, i, f.Idx, fin[i-1].Idx)
				}
				if f.Emitted != emitted[f.Idx] || f.Full != float64(full[f.Idx]) {
					t.Fatalf("%s: window %d reported %+v, want emitted %v full %v", policy, f.Idx, f, emitted[f.Idx], full[f.Idx])
				}
			}
		}
	}
}

// TestFeedbackRingBounded: what the operator keeps for feedback is the
// windows within the horizon of the clock, however long the stream.
func TestFeedbackRingBounded(t *testing.T) {
	spec := Spec{Size: 10 * stream.Second, Slide: stream.Second}
	const horizon = 40 * stream.Second
	op := NewOp(spec, Sum(), DropLate, 0)
	op.SetFeedback(horizon)
	maxKept := int((horizon + spec.Size) / spec.Slide)
	var out []Result
	var fin []Final
	for i, tp := range feedbackStream(150_000, 81) {
		out = op.Observe(tp, tp.Arrival, out[:0])
		fin = op.Finals(fin[:0])
		if i%10_000 == 9_999 {
			if n := op.kept.len(); n > maxKept || cap(op.kept.wins) > 2*(maxKept+64) {
				t.Fatalf("kept windows leaked at %d tuples: %d kept (cap %d), want at most %d",
					i+1, n, cap(op.kept.wins), maxKept)
			}
		}
	}
}

// TestKeptRingFromRetainedSnapshot: a RefineLate operator's state as
// snapshots written before the ring hold it — a "retained" list, no "kept"
// ring — restores into the ring and carries on exactly as the operator it
// was taken from.
func TestKeptRingFromRetainedSnapshot(t *testing.T) {
	ts := feedbackStream(6_000, 9)
	spec := Spec{Size: 1000, Slide: 250}
	orig := NewOp(spec, Sum(), RefineLate, 3000)
	var want []Result
	for _, tp := range ts[:3000] {
		want = orig.Observe(tp, tp.Arrival, want)
	}
	st := orig.State()
	if st.Kept == nil || len(st.Kept.Wins) < 4 {
		t.Fatalf("test setup: want a ring of several windows, got %+v", st.Kept)
	}
	for i, w := range st.Kept.Wins {
		if w.Agg != nil {
			st.Retained = append(st.Retained, WinAgg{Idx: st.Kept.Lo + int64(i), Agg: *w.Agg})
		}
	}
	st.Kept = nil
	restored := NewOp(spec, Sum(), RefineLate, 3000)
	if err := restored.Restore(st); err != nil {
		t.Fatal(err)
	}
	var got []Result
	n := len(want)
	for _, tp := range ts[3000:] {
		want = orig.Observe(tp, tp.Arrival, want)
		got = restored.Observe(tp, tp.Arrival, got)
	}
	requireSameBits(t, "after restoring a retained list", want[n:], got)
}
