package stats_test

import (
	"fmt"

	"repro/internal/stats"
)

// ExampleLogHist shows the streaming quantile: exact below 128, and above it
// the top of the true quantile's bucket, at most 1/128 of it higher.
func ExampleLogHist() {
	var h stats.LogHist
	for i := 1; i <= 10000; i++ {
		h.Add(float64(i))
	}
	fmt.Println(h.Quantile(0.01), h.Quantile(0.5), h.Quantile(0.99), h.Quantile(1))
	// Output:
	// 100 5023 9919 10000
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
