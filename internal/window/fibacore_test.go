package window

import (
	"encoding/json"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/fiba"
	"repro/internal/stats"
	"repro/internal/stream"
)

// TestFibaSnapshotRoundTrip snapshots an operator mid-stream, restores the
// state into a fresh operator — through JSON, as the durable log does — and
// requires the suffix output to match the uninterrupted run bit for bit.
// The payloads are floats: a sum's last bits depend on how the tree groups
// its partials, so this holds only because the snapshot keeps the shape.
func TestFibaSnapshotRoundTrip(t *testing.T) {
	spec := Spec{Size: 20, Slide: 5}
	for _, f := range []Factory{Sum(), Quantile(0.95), Avg()} {
		rng := rand.New(rand.NewSource(7))
		tuples := genTuples(rng, 1200, 60)
		for i := range tuples {
			tuples[i].Value += rng.Float64()
		}
		cont := NewOp(spec, f, RefineLate, 50)
		snap := NewOp(spec, f, RefineLate, 50)
		var a, b []Result
		cut := 700
		for i, tp := range tuples[:cut] {
			a = cont.Observe(tp, stream.Time(i), a[:0])
			b = snap.Observe(tp, stream.Time(i), b[:0])
		}
		st := snap.State()
		if len(st.Tree) == 0 || st.Shape == nil {
			t.Fatalf("%s: snapshot exported %d tree entries, shape %v", f.Name, len(st.Tree), st.Shape)
		}
		data, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		var back OpState
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		restored := NewOp(spec, f, RefineLate, 50)
		if err := restored.Restore(back); err != nil {
			t.Fatal(err)
		}
		for i, tp := range tuples[cut:] {
			now := stream.Time(cut + i)
			a = cont.Observe(tp, now, a[:0])
			b = restored.Observe(tp, now, b[:0])
			compareResults(t, f.Name, spec, RefineLate, a, b, 0)
		}
		a = cont.Flush(9999, a[:0])
		b = restored.Flush(9999, b[:0])
		compareResults(t, f.Name, spec, RefineLate, a, b, 0)
	}
}

// TestRestoreRefusesWhatItCannotRebuild covers the snapshots Restore is
// handed from outside and cannot restore faithfully. Per-window partials of
// the removed per-window-fold core ("open") cannot be turned back into
// tuples, and a shape that does not fit its entries is a damaged file; both
// are errors that name the remedy and leave the operator as it was — never
// an operator whose open windows are silently empty.
func TestRestoreRefusesWhatItCannotRebuild(t *testing.T) {
	spec := Spec{Size: 10, Slide: 5}
	live := NewOp(spec, Sum(), DropLate, 0)
	for i := 0; i < 200; i++ {
		live.Observe(stream.Tuple{Seq: uint64(i), TS: stream.Time(i / 40), Value: 1}, 0, nil)
	}
	good, err := json.Marshal(live.State())
	if err != nil {
		t.Fatal(err)
	}
	legacy := []byte(`{"open":[{"idx":0,"agg":{"n":1,"nums":[42,0]}}],"nextEmit":0,"haveFirst":true,"clock":3,"started":true,"stats":{"TuplesIn":1}}`)
	var damaged OpState
	if err := json.Unmarshal(good, &damaged); err != nil {
		t.Fatal(err)
	}
	damaged.Shape.Leaves[0]--
	bad, err := json.Marshal(damaged)
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		data []byte
		want string
	}{
		"legacy open windows": {legacy, "per-window-fold"},
		"malformed shape":     {bad, "damaged"},
	} {
		var st OpState
		if err := json.Unmarshal(tc.data, &st); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		op := NewOp(spec, Sum(), DropLate, 0)
		op.Observe(stream.Tuple{Seq: 1, TS: 3, Value: 42}, 0, nil)
		err := op.Restore(st)
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "clear the query's durable directory") {
			t.Errorf("%s: Restore returned %v; want an error naming the cause (%q) and the remedy", name, err, tc.want)
		}
		if out := op.Flush(0, nil); len(out) != 2 || out[0].Value != 42 || out[1].Value != 42 {
			t.Errorf("%s: the refused Restore changed the operator: it now flushes %v", name, out)
		}
	}
}

// TestRestoreTreeSnapshotWithoutShape is the upgrade path: the previous
// version's default core wrote the tree entries but no shape. Such a
// snapshot restores by bulk insert — every tuple is there, in a tree of
// another shape, and no aggregate's value depends on the shape.
func TestRestoreTreeSnapshotWithoutShape(t *testing.T) {
	spec := Spec{Size: 20, Slide: 5}
	tuples := genTuples(rand.New(rand.NewSource(5)), 1200, 60)
	cont := NewOp(spec, Sum(), DropLate, 0)
	var a, b []Result
	cut := 700
	for i, tp := range tuples[:cut] {
		a = cont.Observe(tp, stream.Time(i), a[:0])
	}
	st := cont.State()
	st.Shape = nil
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "shape") {
		t.Fatalf("a shape-less state still marshals a shape: %s", data)
	}
	var old OpState
	if err := json.Unmarshal(data, &old); err != nil {
		t.Fatal(err)
	}
	restored := NewOp(spec, Sum(), DropLate, 0)
	if err := restored.Restore(old); err != nil {
		t.Fatal(err)
	}
	for i, tp := range tuples[cut:] {
		now := stream.Time(cut + i)
		a = cont.Observe(tp, now, a[:0])
		b = restored.Observe(tp, now, b[:0])
		compareResults(t, "sum", spec, DropLate, a, b, 0)
	}
	compareResults(t, "sum", spec, DropLate, cont.Flush(9999, nil), restored.Flush(9999, nil), 0)
}

// FactoryMonoid adapts a window Factory to a fiba.Monoid over Aggregate
// values, using the Mergeable combine every built-in aggregate implements.
// nil is the identity; Combine clones through the snapshot codec so cached
// tree partials are never mutated. It is the reference the operator's
// specialized treePart arithmetic (scalar partials, no boxing) is checked
// against.
func FactoryMonoid(f Factory) fiba.Monoid[Aggregate] { return aggMonoid{f: f} }

type aggMonoid struct{ f Factory }

// Identity implements fiba.Monoid.
func (aggMonoid) Identity() Aggregate { return nil }

// Lift implements fiba.Monoid.
func (m aggMonoid) Lift(v float64) Aggregate {
	a := m.f.New()
	a.Add(v)
	return a
}

// Combine implements fiba.Monoid.
func (m aggMonoid) Combine(a, b Aggregate) Aggregate {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	c := RestoreAggregate(m.f, SaveAggregate(a))
	c.(Mergeable).MergeFrom(b)
	return c
}

// TestFactoryMonoidMatchesTreePart cross-checks the specialized treePart
// arithmetic against the generic Mergeable-based FactoryMonoid: both tree
// variants must produce identical range aggregates.
func TestFactoryMonoidMatchesTreePart(t *testing.T) {
	for _, f := range []Factory{Count(), Sum(), Min(), Max()} {
		rng := rand.New(rand.NewSource(11))
		spec := treeMonoid{mode: fibaModeFor(f)}
		fast := fiba.New[treePart](spec)
		gen := fiba.New[Aggregate](FactoryMonoid(f))
		for i := 0; i < 3000; i++ {
			k := fiba.Key{TS: stream.Time(rng.Intn(500)), Seq: uint64(i)}
			v := float64(rng.Intn(200) - 100)
			fast.Insert(k, v)
			gen.Insert(k, v)
		}
		for q := 0; q < 50; q++ {
			lo := stream.Time(rng.Intn(400))
			hi := lo + stream.Time(rng.Intn(100)+1)
			fp := fast.RangeAgg(lo, hi)
			gp := gen.RangeAgg(lo, hi)
			if gp == nil {
				if fp.n != 0 {
					t.Fatalf("%s [%d,%d): treePart n=%d, FactoryMonoid empty", f.Name, lo, hi, fp.n)
				}
				continue
			}
			want := SaveAggregate(gp)
			var got AggState
			switch fibaModeFor(f) {
			case fibaCount:
				got = AggState{N: fp.n}
			case fibaSum:
				got = AggState{N: fp.n, Nums: []float64{fp.a, fp.b}}
			default:
				got = AggState{N: fp.n, Nums: []float64{fp.a}}
			}
			if got.N != want.N || len(got.Nums) != len(want.Nums) {
				t.Fatalf("%s [%d,%d): treePart=%+v FactoryMonoid=%+v", f.Name, lo, hi, got, want)
			}
			for i := range got.Nums {
				if got.Nums[i] != want.Nums[i] {
					t.Fatalf("%s [%d,%d): scalar %d: treePart=%v FactoryMonoid=%v",
						f.Name, lo, hi, i, got.Nums[i], want.Nums[i])
				}
			}
		}
	}
}

// TestQuantileSortedInsert covers the in-place sorted insert on
// interleaved Add/Value: the sample must stay sorted and values must match
// a from-scratch computation.
func TestQuantileSortedInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := Median().New().(*quantileAgg)
	var all []float64
	for i := 0; i < 500; i++ {
		v := float64(rng.Intn(100))
		a.Add(v)
		all = append(all, v)
		if i%3 == 0 { // force the sorted state, then keep adding
			ref := append([]float64(nil), all...)
			sort.Float64s(ref)
			want := stats.PercentileSorted(ref, 0.5)
			if got := a.Value(); got != want {
				t.Fatalf("step %d: median = %v, want %v", i, got, want)
			}
			if !sort.Float64sAreSorted(a.vals) {
				t.Fatalf("step %d: sample not sorted after Value", i)
			}
		}
	}
	if a.sorted && !sort.Float64sAreSorted(a.vals) {
		t.Fatal("sorted flag set on unsorted sample")
	}
}
