package fiba

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/stream"
)

// randomOp applies one step of a disorder-buffer-like history to every
// tree in trs: mostly in-order inserts, some out-of-order ones at random
// distance from the end, now and then a prefix eviction.
func randomOp(rng *stats.RNG, clock *stream.Time, seq *uint64, trs ...*Tree[float64]) {
	switch r := rng.Float64(); {
	case r < 0.08:
		cut := *clock - stream.Time(rng.Intn(400))
		for _, tr := range trs {
			tr.EvictBelow(cut)
		}
	default:
		*clock += stream.Time(rng.Intn(3))
		ts := *clock
		if r < 0.4 {
			ts -= stream.Time(rng.Intn(300)) // out of order
		}
		*seq++
		v := rng.NormFloat64() * 1e3
		for _, tr := range trs {
			tr.Insert(Key{TS: ts, Seq: *seq}, v)
		}
	}
}

// sameRanges requires every range fold of a and b to agree to the bit.
func sameRanges(t *testing.T, seed uint64, when string, rng *stats.RNG, clock stream.Time, a, b *Tree[float64]) {
	t.Helper()
	for q := 0; q < 40; q++ {
		lo := clock - stream.Time(rng.Intn(600))
		hi := lo + stream.Time(1+rng.Intn(400))
		x, y := a.RangeAgg(lo, hi), b.RangeAgg(lo, hi)
		if math.Float64bits(x) != math.Float64bits(y) {
			t.Fatalf("seed %d, %s: sum over [%d,%d) is %v on the live tree, %v on the loaded one", seed, when, lo, hi, x, y)
		}
	}
}

// TestShapeRoundTrip is the snapshot contract of the tree: after any
// history, Entries + Shape → Load gives a tree that answers every range
// fold bit-identically to the live one — float sums included, which a tree
// rebuilt by re-inserting the entries does not — and keeps doing so while
// both take the same further operations, because it also splits and evicts
// identically (the shapes stay equal).
func TestShapeRoundTrip(t *testing.T) {
	reinsertDiffers := false
	for seed := uint64(1); seed <= 1000; seed++ {
		rng := stats.NewRNG(seed)
		live := New[float64](SumMonoid{})
		var clock stream.Time
		var seq uint64
		for i, n := 0, 200+rng.Intn(3000); i < n; i++ {
			randomOp(rng, &clock, &seq, live)
		}
		ents, sh := live.Entries(nil), live.Shape()
		loaded := New[float64](SumMonoid{})
		if err := loaded.Load(ents, sh); err != nil {
			t.Fatalf("seed %d: Load of an exported shape: %v", seed, err)
		}
		checkInvariants(t, loaded)
		if loaded.Len() != live.Len() || !reflect.DeepEqual(loaded.Shape(), sh) {
			t.Fatalf("seed %d: loaded tree has %d entries in shape %v, want %d in %v", seed, loaded.Len(), loaded.Shape(), live.Len(), sh)
		}
		sameRanges(t, seed, "after Load", rng, clock, live, loaded)

		if !reinsertDiffers {
			bulk := New[float64](SumMonoid{})
			bulk.InsertBatch(ents)
			reinsertDiffers = math.Float64bits(bulk.RangeAgg(0, clock+1)) != math.Float64bits(live.RangeAgg(0, clock+1))
		}

		for i := 0; i < 1000; i++ {
			randomOp(rng, &clock, &seq, live, loaded)
		}
		checkInvariants(t, loaded)
		if !reflect.DeepEqual(loaded.Shape(), live.Shape()) {
			t.Fatalf("seed %d: shapes diverged over 1000 further operations", seed)
		}
		sameRanges(t, seed, "after 1000 further operations", rng, clock, live, loaded)
	}
	if !reinsertDiffers {
		t.Fatal("re-inserting the entries always reproduced the float sum; the test does not show that the shape matters")
	}
}

// TestLoadRejectsMalformedShape feeds Load what a damaged or hand-edited
// snapshot could hold. Each case is an error naming the mismatch, and the
// tree keeps what it had.
func TestLoadRejectsMalformedShape(t *testing.T) {
	ents := make([]Entry, 100)
	for i := range ents {
		ents[i] = Entry{Key: Key{TS: stream.Time(i), Seq: uint64(i)}, Val: float64(i)}
	}
	leaves := func(n ...int) []int { return n }
	unsorted := append([]Entry(nil), ents...)
	unsorted[10], unsorted[11] = unsorted[11], unsorted[10]
	for _, tc := range []struct {
		name string
		ents []Entry
		sh   Shape
		want string
	}{
		{"counts too small", ents, Shape{Leaves: leaves(30, 30, 30), Levels: [][]int{{3}}}, "snapshot holds 100"},
		{"counts too large", ents, Shape{Leaves: leaves(30, 30, 30, 30), Levels: [][]int{{4}}}, "snapshot holds 100"},
		{"leaf over fanout", ents, Shape{Leaves: leaves(60, 40), Levels: [][]int{{2}}}, "want 1..32"},
		{"empty leaf", ents, Shape{Leaves: leaves(30, 0, 30, 20, 20), Levels: [][]int{{5}}}, "want 1..32"},
		{"zero-arity node", ents, Shape{Leaves: leaves(25, 25, 25, 25), Levels: [][]int{{2}, {4, 0}}}, "want 1..8"},
		{"node over fanout", ents[:18], Shape{Leaves: leaves(2, 2, 2, 2, 2, 2, 2, 2, 2), Levels: [][]int{{9}}}, "want 1..8"},
		{"level does not cover the leaves", ents, Shape{Leaves: leaves(25, 25, 25, 25), Levels: [][]int{{3}}}, "the level below has 4"},
		{"missing root level", ents, Shape{Leaves: leaves(25, 25, 25, 25), Levels: [][]int{{2, 2}}}, "without a common root"},
		{"no levels over several leaves", ents, Shape{Leaves: leaves(25, 25, 25, 25)}, "without a common root"},
		{"levels over nothing", nil, Shape{Levels: [][]int{{1}}}, "the level below has 0"},
		{"entries out of order", unsorted, Shape{Leaves: leaves(25, 25, 25, 25), Levels: [][]int{{4}}}, "out of key order"},
	} {
		tr := New[float64](SumMonoid{})
		tr.Insert(Key{TS: 7}, 7)
		err := tr.Load(tc.ents, tc.sh)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Load returned %v, want an error containing %q", tc.name, err, tc.want)
		}
		if tr.Len() != 1 || tr.RangeAgg(0, 10) != 7 {
			t.Errorf("%s: a refused Load changed the tree", tc.name)
		}
	}
	// The degenerate shapes Load accepts: nothing at all, and one leaf.
	tr := New[float64](SumMonoid{})
	if err := tr.Load(nil, Shape{}); err != nil || tr.Len() != 0 {
		t.Errorf("empty snapshot: %v, %d entries", err, tr.Len())
	}
	if err := tr.Load(ents[:5], Shape{Leaves: leaves(5)}); err != nil || tr.RangeAgg(0, 5) != 10 {
		t.Errorf("single-leaf snapshot: %v", err)
	}
}
