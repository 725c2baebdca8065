package stats

import (
	"math"
	"testing"
)

func TestReservoirFillsToCapacity(t *testing.T) {
	r := NewReservoir(10, NewRNG(61))
	for i := 0; i < 5; i++ {
		r.Add(float64(i))
	}
	if r.Len() != 5 {
		t.Fatalf("Len = %d, want 5 before capacity reached", r.Len())
	}
	for i := 5; i < 100; i++ {
		r.Add(float64(i))
	}
	if r.Len() != 10 {
		t.Fatalf("Len = %d, want capacity 10", r.Len())
	}
	if r.n != 100 {
		t.Fatalf("N = %d, want 100", r.n)
	}
}

func TestReservoirUniformity(t *testing.T) {
	// Each of n items should land in the final sample with probability
	// cap/n. Run many trials and check inclusion counts per item.
	const n, capacity, trials = 20, 5, 20000
	counts := make([]int, n)
	rng := NewRNG(67)
	for trial := 0; trial < trials; trial++ {
		r := NewReservoir(capacity, rng)
		for i := 0; i < n; i++ {
			r.Add(float64(i))
		}
		for _, v := range r.Sample() {
			counts[int(v)]++
		}
	}
	want := float64(trials) * capacity / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.1*want {
			t.Errorf("item %d sampled %d times, want ~%v", i, c, want)
		}
	}
}

func TestReservoirMeanEstimate(t *testing.T) {
	rng := NewRNG(71)
	r := NewReservoir(2000, rng)
	for i := 0; i < 100000; i++ {
		r.Add(rng.Float64Range(0, 10))
	}
	var sum float64
	for _, x := range r.Sample() {
		sum += x
	}
	if m := sum / float64(r.Len()); math.Abs(m-5) > 0.3 {
		t.Fatalf("sample mean %v, want ~5", m)
	}
}

func TestReservoirPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("capacity 0 did not panic")
			}
		}()
		NewReservoir(0, NewRNG(1))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("nil rng did not panic")
			}
		}()
		NewReservoir(1, nil)
	}()
}
