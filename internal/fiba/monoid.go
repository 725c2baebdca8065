package fiba

// A ready-made monoid for direct Tree users. internal/window has its own
// specialized partial (one struct covering count/sum/min/max with the exact
// merge arithmetic of its legacy aggregates).

// SumMonoid aggregates float64 sums.
type SumMonoid struct{}

// Identity implements Monoid.
func (SumMonoid) Identity() float64 { return 0 }

// Lift implements Monoid.
func (SumMonoid) Lift(v float64) float64 { return v }

// Combine implements Monoid.
func (SumMonoid) Combine(a, b float64) float64 { return a + b }
