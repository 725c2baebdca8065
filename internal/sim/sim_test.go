package sim

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/stats"
	"repro/internal/stream"
)

func TestKernelOrdersByTime(t *testing.T) {
	var k Kernel
	var got []int
	k.Schedule(30, func() { got = append(got, 3) })
	k.Schedule(10, func() { got = append(got, 1) })
	k.Schedule(20, func() { got = append(got, 2) })
	k.Run()
	for i, want := range []int{1, 2, 3} {
		if got[i] != want {
			t.Fatalf("execution order %v", got)
		}
	}
	if k.Now() != 30 {
		t.Fatalf("Now = %d, want 30", k.Now())
	}
}

func TestKernelTieBreakIsScheduleOrder(t *testing.T) {
	var k Kernel
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(5, func() { got = append(got, i) })
	}
	k.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("ties not in schedule order: %v", got)
		}
	}
}

func TestKernelNestedScheduling(t *testing.T) {
	var k Kernel
	var got []string
	k.Schedule(10, func() {
		got = append(got, "a")
		k.Schedule(k.Now()+5, func() { got = append(got, "b") })
	})
	k.Schedule(12, func() { got = append(got, "mid") })
	k.Run()
	want := []string{"a", "mid", "b"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("nested order: %v", got)
		}
	}
}

func TestKernelPastSchedulingPanics(t *testing.T) {
	var k Kernel
	k.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling into the past did not panic")
			}
		}()
		k.Schedule(5, func() {})
	})
	k.Run()
}

func TestLinkFIFOAndService(t *testing.T) {
	var k Kernel
	col := &Collector{}
	// Service 10, no jitter, propagation 100: two back-to-back packets
	// leave 10 apart (queueing), each +100 propagation.
	l := NewLink(LinkConfig{Propagation: 100, ServiceMean: 10}, col, nil)
	t1 := stream.Tuple{TS: 0, Seq: 1}
	t2 := stream.Tuple{TS: 0, Seq: 2}
	k.Schedule(0, func() { l.Receive(&k, t1) })
	k.Schedule(0, func() { l.Receive(&k, t2) })
	k.Run()
	if len(col.Tuples) != 2 {
		t.Fatalf("delivered %d", len(col.Tuples))
	}
	if col.Tuples[0].Arrival != 110 || col.Tuples[1].Arrival != 120 {
		t.Fatalf("arrivals %d, %d; want 110, 120", col.Tuples[0].Arrival, col.Tuples[1].Arrival)
	}
	if l.QueueDelaySum != 10 {
		t.Fatalf("queue delay %d, want 10", l.QueueDelaySum)
	}
}

func TestLinkQueueingUnderOverload(t *testing.T) {
	// Arrivals at rate 1/unit into a service time of 2 units: queueing
	// delay grows linearly.
	var k Kernel
	col := &Collector{}
	l := NewLink(LinkConfig{ServiceMean: 2}, col, nil)
	for i := 0; i < 100; i++ {
		tt := stream.Tuple{TS: stream.Time(i), Seq: uint64(i)}
		k.Schedule(tt.TS, func() { l.Receive(&k, tt) })
	}
	k.Run()
	last := col.Tuples[len(col.Tuples)-1]
	if last.Delay() < 90 {
		t.Fatalf("overloaded link delay %d, want ~100 (emergent queueing)", last.Delay())
	}
}

func TestMultipathProducesReordering(t *testing.T) {
	events := gen.Config{N: 20000, Interval: 10, Seed: 7}.Events()
	arr := Transport(events, 0)
	if len(arr) != len(events) {
		t.Fatalf("transport lost tuples: %d of %d", len(arr), len(events))
	}
	d := stream.MeasureDisorder(arr)
	if d.OutOfOrder == 0 {
		t.Fatal("multipath produced no disorder")
	}
	if d.MaxDelay <= 20 {
		t.Fatalf("max delay %d suspiciously small", d.MaxDelay)
	}
	// Fast path dominates: most tuples should be in order.
	if d.FracOutOfOrder() > 0.5 {
		t.Fatalf("too much disorder: %v", d)
	}
}

func TestTransportDeterministic(t *testing.T) {
	events := gen.Config{N: 5000, Interval: 10, Seed: 8}.Events()
	a := Transport(events, 0)
	b := Transport(events, 0)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("simulation not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := Transport(events, 99)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical transport")
	}
}

func TestMultipathPanics(t *testing.T) {
	rng := stats.NewRNG(1)
	col := &Collector{}
	l := NewLink(LinkConfig{}, col, rng)
	for name, f := range map[string]func(){
		"empty":    func() { NewMultipath(nil, nil, rng) },
		"mismatch": func() { NewMultipath([]float64{1}, []*Link{l, l}, rng) },
		"negative": func() { NewMultipath([]float64{-1, 2}, []*Link{l, l}, rng) },
		"zero":     func() { NewMultipath([]float64{0}, []*Link{l}, rng) },
		"nil next": func() { NewLink(LinkConfig{}, nil, rng) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}
