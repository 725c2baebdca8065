package fiba

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/stats"
	"repro/internal/stream"
)

// TestInsertRunShapeMatchesSequential is InsertRun's contract: whatever the
// right leaf holds when a run arrives (every fill level from the empty tree
// to the entry that splits the first leaf, 0…33) and however the input is cut
// into runs, the tree is the one that inserting the entries one by one
// builds — same entries, same shape, same counters, and therefore the same
// bits out of every range fold of a float sum, which depends on how the
// leaves group their values. The runs are what a disorder buffer releases:
// ascending for the most part, equal keys and equal timestamps included,
// with stragglers below the maximum, and prefix evictions between them.
func TestInsertRunShapeMatchesSequential(t *testing.T) {
	for fill := 0; fill <= maxLeaf+1; fill++ {
		for seed := uint64(1); seed <= 20; seed++ {
			rng := stats.NewRNG(seed*100 + uint64(fill))
			runs, single := New[float64](SumMonoid{}), New[float64](SumMonoid{})
			var clock stream.Time
			var seq uint64
			next := func() Entry {
				clock += stream.Time(rng.Intn(3)) // 0: an equal timestamp
				e := Entry{Key: Key{TS: clock, Seq: seq}, Val: rng.NormFloat64() * 1e3}
				switch r := rng.Float64(); {
				case r < 0.10:
					e.TS -= stream.Time(rng.Intn(200)) // a straggler
				case r < 0.15 && seq > 0:
					e.Seq = seq - 1 // an equal key, or one just below the maximum
				}
				seq++
				return e
			}
			for i := 0; i < fill; i++ {
				e := next()
				runs.Insert(e.Key, e.Val)
				single.Insert(e.Key, e.Val)
			}
			for round := 0; round < 30; round++ {
				run := make([]Entry, rng.Intn(120))
				for i := range run {
					run[i] = next()
				}
				runs.InsertRun(run)
				for _, e := range run {
					single.Insert(e.Key, e.Val)
				}
				if rng.Float64() < 0.3 {
					cut := clock - stream.Time(rng.Intn(300))
					runs.EvictBelow(cut)
					single.EvictBelow(cut)
				}
				checkInvariants(t, runs)
				if got, want := runs.Shape(), single.Shape(); !reflect.DeepEqual(got, want) {
					t.Fatalf("fill %d, seed %d, round %d: shape %v, one-by-one inserts give %v", fill, seed, round, got, want)
				}
				if got, want := runs.Entries(nil), single.Entries(nil); !reflect.DeepEqual(got, want) {
					t.Fatalf("fill %d, seed %d, round %d: entries differ from one-by-one inserts", fill, seed, round)
				}
				for q := 0; q < 8; q++ {
					lo := clock - stream.Time(rng.Intn(600))
					hi := lo + stream.Time(1+rng.Intn(400))
					x, y := runs.RangeAgg(lo, hi), single.RangeAgg(lo, hi)
					if math.Float64bits(x) != math.Float64bits(y) {
						t.Fatalf("fill %d, seed %d, round %d: sum over [%d,%d) is %v, one-by-one inserts give %v", fill, seed, round, lo, hi, x, y)
					}
				}
				if got, want := runs.Stats(), single.Stats(); got != want {
					t.Fatalf("fill %d, seed %d, round %d: stats %+v, one-by-one inserts give %+v", fill, seed, round, got, want)
				}
			}
			if runs.Stats().Splits == 0 || runs.Stats().FingerSearch == 0 {
				t.Fatalf("fill %d, seed %d: no split or no straggler; the comparison proves less than it should", fill, seed)
			}
		}
	}
}
