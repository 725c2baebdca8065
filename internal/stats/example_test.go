package stats_test

import (
	"fmt"

	"repro/internal/stats"
)

// ExampleGK shows the streaming quantile summary on a known distribution.
func ExampleGK() {
	g := stats.NewGK(0.01)
	for i := 1; i <= 10000; i++ {
		g.Add(float64(i))
	}
	fmt.Println("p50 within 1%:", within(g.Quantile(0.5), 5000, 100))
	fmt.Println("p99 within 1%:", within(g.Quantile(0.99), 9900, 100))
	// Output:
	// p50 within 1%: true
	// p99 within 1%: true
}

func within(got, want, tol float64) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d <= tol
}

// ExampleWelford shows one-pass moments, the primitive behind windowed
// averages.
func ExampleWelford() {
	var w stats.Welford
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(v)
	}
	fmt.Println(w.Mean(), w.Std())
	// Output:
	// 5 2
}
