package window

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestMergeFromMatchesDirectAdd(t *testing.T) {
	rng := stats.NewRNG(801)
	for _, f := range append(AllFactories(), Distinct()) {
		f := f
		prop := func(n uint8) bool {
			vs := make([]float64, int(n%60)+2)
			for i := range vs {
				vs[i] = float64(rng.Intn(50)) // coarse values so distinct has duplicates
			}
			direct := f.New()
			for _, v := range vs {
				direct.Add(v)
			}
			half := len(vs) / 2
			a, b := f.New(), f.New()
			for _, v := range vs[:half] {
				a.Add(v)
			}
			for _, v := range vs[half:] {
				b.Add(v)
			}
			a.(Mergeable).MergeFrom(b)
			if a.N() != direct.N() {
				return false
			}
			av, dv := a.Value(), direct.Value()
			if math.IsNaN(av) && math.IsNaN(dv) {
				return true
			}
			return math.Abs(av-dv) <= 1e-9*(1+math.Abs(dv))
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
			t.Errorf("%s: %v", f.Name, err)
		}
	}
}

func TestMergeFromEmptySides(t *testing.T) {
	for _, f := range AllFactories() {
		a := f.New()
		b := f.New()
		a.(Mergeable).MergeFrom(b) // empty into empty
		if a.N() != 0 {
			t.Errorf("%s: empty merge changed N", f.Name)
		}
		b.Add(5)
		a.(Mergeable).MergeFrom(b)
		if a.N() != 1 {
			t.Errorf("%s: merge into empty lost data", f.Name)
		}
		c := f.New()
		a.(Mergeable).MergeFrom(c)
		if a.N() != 1 {
			t.Errorf("%s: merging empty changed N", f.Name)
		}
	}
}
