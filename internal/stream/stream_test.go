package stream

import (
	"cmp"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func tup(ts, arrival Time, seq uint64) Tuple {
	return Tuple{TS: ts, Arrival: arrival, Seq: seq, Value: float64(ts)}
}

// collect drains a source into a slice of items.
func collect(s Source) []Item {
	var out []Item
	for {
		it, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, it)
	}
}

// collectTuples drains a source and returns only the data tuples.
func collectTuples(s Source) []Tuple {
	var out []Tuple
	for _, it := range collect(s) {
		if !it.Heartbeat {
			out = append(out, it.Tuple)
		}
	}
	return out
}

// eventTimeSorted reports whether tuples are non-decreasing in event time.
func eventTimeSorted(ts []Tuple) bool {
	return slices.IsSortedFunc(ts, func(a, b Tuple) int { return cmp.Compare(a.TS, b.TS) })
}

func TestTupleDelayAndString(t *testing.T) {
	x := Tuple{TS: 100, Arrival: 130, Seq: 7, Key: 2, Value: 3.5}
	if x.Delay() != 30 {
		t.Fatalf("Delay = %d, want 30", x.Delay())
	}
	if s := x.String(); !strings.Contains(s, "ts=100") || !strings.Contains(s, "arr=130") {
		t.Fatalf("String = %q", s)
	}
}

func TestItemConstructors(t *testing.T) {
	d := DataItem(Tuple{TS: 5})
	if d.Heartbeat {
		t.Fatal("DataItem marked as heartbeat")
	}
	h := HeartbeatItem(42)
	if !h.Heartbeat || h.Watermark != 42 {
		t.Fatalf("HeartbeatItem = %+v", h)
	}
	if !strings.Contains(h.String(), "heartbeat") {
		t.Fatalf("heartbeat String = %q", h.String())
	}
}

func TestSliceSource(t *testing.T) {
	src := FromTuples([]Tuple{tup(1, 1, 0), tup(2, 2, 1)})
	if len(src.items) != 2 {
		t.Fatalf("Len = %d", len(src.items))
	}
	got := collectTuples(src)
	if len(got) != 2 || got[0].TS != 1 || got[1].TS != 2 {
		t.Fatalf("collected %v", got)
	}
	if _, ok := src.Next(); ok {
		t.Fatal("exhausted source returned an item")
	}
	src.pos = 0 // rewind
	if got := collectTuples(src); len(got) != 2 {
		t.Fatalf("after Reset collected %d tuples", len(got))
	}
}

func TestFuncSource(t *testing.T) {
	n := 0
	src := FuncSource(func() (Item, bool) {
		if n >= 3 {
			return Item{}, false
		}
		n++
		return DataItem(Tuple{TS: Time(n)}), true
	})
	if got := len(collect(src)); got != 3 {
		t.Fatalf("collected %d items, want 3", got)
	}
}

func TestMergeOrdersByArrival(t *testing.T) {
	a := FromTuples([]Tuple{tup(1, 10, 0), tup(2, 30, 1)})
	b := FromTuples([]Tuple{tup(3, 20, 0), tup(4, 40, 1)})
	m := NewMerge(a, b)
	got := collectTuples(m)
	wantArrivals := []Time{10, 20, 30, 40}
	if len(got) != len(wantArrivals) {
		t.Fatalf("merged %d tuples", len(got))
	}
	for i, w := range wantArrivals {
		if got[i].Arrival != w {
			t.Fatalf("pos %d arrival = %d, want %d", i, got[i].Arrival, w)
		}
	}
}

func TestMergeEmptyInputs(t *testing.T) {
	m := NewMerge(FromTuples(nil), FromTuples([]Tuple{tup(1, 1, 0)}))
	if got := collectTuples(m); len(got) != 1 {
		t.Fatalf("merge with empty input: %d tuples", len(got))
	}
	empty := NewMerge()
	if _, ok := empty.Next(); ok {
		t.Fatal("merge of no sources returned an item")
	}
}

func TestMergePropertyPreservesAllAndOrders(t *testing.T) {
	rng := stats.NewRNG(101)
	f := func(na, nb uint8) bool {
		mk := func(n uint8, seed Time) []Tuple {
			ts := make([]Tuple, int(n%32))
			arr := seed
			for i := range ts {
				arr += Time(rng.Intn(10))
				ts[i] = tup(arr, arr, uint64(i))
			}
			return ts
		}
		a, b := mk(na, 0), mk(nb, 3)
		m := NewMerge(FromTuples(a), FromTuples(b))
		got := collectTuples(m)
		if len(got) != len(a)+len(b) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].Arrival < got[i-1].Arrival {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSortHelpers(t *testing.T) {
	ts := []Tuple{tup(3, 10, 2), tup(1, 30, 0), tup(2, 20, 1)}
	SortByEventTime(ts)
	if !eventTimeSorted(ts) {
		t.Fatal("SortByEventTime did not sort")
	}
	SortByArrival(ts)
	for i := 1; i < len(ts); i++ {
		if ts[i].Arrival < ts[i-1].Arrival {
			t.Fatal("SortByArrival did not sort")
		}
	}
}

func TestSortStableOnTies(t *testing.T) {
	ts := []Tuple{
		{TS: 5, Arrival: 5, Seq: 2},
		{TS: 5, Arrival: 5, Seq: 0},
		{TS: 5, Arrival: 5, Seq: 1},
	}
	SortByEventTime(ts)
	for i, want := range []uint64{0, 1, 2} {
		if ts[i].Seq != want {
			t.Fatalf("tie-break by seq failed: %v", ts)
		}
	}
}

func TestMeasureDisorderInOrder(t *testing.T) {
	ts := []Tuple{tup(1, 1, 0), tup(2, 2, 1), tup(3, 3, 2)}
	d := MeasureDisorder(ts)
	if d.OutOfOrder != 0 || d.MaxLateness != 0 {
		t.Fatalf("in-order stream measured disorder: %+v", d)
	}
	if d.N != 3 {
		t.Fatalf("N = %d", d.N)
	}
}

func TestMeasureDisorderLateTuple(t *testing.T) {
	ts := []Tuple{
		{TS: 10, Arrival: 10},
		{TS: 20, Arrival: 21},
		{TS: 12, Arrival: 22}, // late by 8 against clock 20
	}
	d := MeasureDisorder(ts)
	if d.OutOfOrder != 1 {
		t.Fatalf("OutOfOrder = %d, want 1", d.OutOfOrder)
	}
	if d.MaxLateness != 8 {
		t.Fatalf("MaxLateness = %d, want 8", d.MaxLateness)
	}
	if d.MaxDelay != 10 {
		t.Fatalf("MaxDelay = %d, want 10", d.MaxDelay)
	}
	if got := d.FracOutOfOrder(); got != 1.0/3 {
		t.Fatalf("FracOutOfOrder = %v", got)
	}
	if !strings.Contains(d.String(), "ooo=") {
		t.Fatalf("String = %q", d.String())
	}
}

func TestMeasureDisorderEmpty(t *testing.T) {
	d := MeasureDisorder(nil)
	if d.N != 0 || d.FracOutOfOrder() != 0 {
		t.Fatalf("empty disorder: %+v", d)
	}
}

func TestInversionsSmall(t *testing.T) {
	cases := []struct {
		ts   []Time
		want int64
	}{
		{nil, 0},
		{[]Time{1}, 0},
		{[]Time{1, 2, 3}, 0},
		{[]Time{3, 2, 1}, 3},
		{[]Time{2, 1, 3}, 1},
		{[]Time{1, 3, 2, 4}, 1},
	}
	for _, c := range cases {
		ts := make([]Tuple, len(c.ts))
		for i, v := range c.ts {
			ts[i] = Tuple{TS: v}
		}
		if got := Inversions(ts); got != c.want {
			t.Errorf("Inversions(%v) = %d, want %d", c.ts, got, c.want)
		}
	}
}

func TestInversionsMatchesBruteForce(t *testing.T) {
	rng := stats.NewRNG(103)
	f := func(n uint8) bool {
		ts := make([]Tuple, int(n%64))
		for i := range ts {
			ts[i] = Tuple{TS: Time(rng.Intn(20))}
		}
		var brute int64
		for i := 0; i < len(ts); i++ {
			for j := i + 1; j < len(ts); j++ {
				if ts[i].TS > ts[j].TS {
					brute++
				}
			}
		}
		cp := make([]Tuple, len(ts))
		copy(cp, ts)
		got := Inversions(cp)
		// Inversions must not reorder the caller's slice.
		for i := range ts {
			if cp[i].TS != ts[i].TS {
				return false
			}
		}
		return got == brute
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestWithHeartbeats(t *testing.T) {
	tuples := []Tuple{
		tup(10, 10, 0),
		tup(20, 20, 1),
		tup(100, 100, 2), // long arrival gap: heartbeat expected before this
	}
	src := NewWithHeartbeats(FromTuples(tuples), 50)
	items := collect(src)
	var hbs, data int
	for _, it := range items {
		if it.Heartbeat {
			hbs++
			if it.Watermark != 20 {
				t.Fatalf("heartbeat watermark = %d, want 20 (max ts so far)", it.Watermark)
			}
		} else {
			data++
		}
	}
	if data != 3 {
		t.Fatalf("heartbeat wrapper lost data: %d tuples", data)
	}
	if hbs != 1 {
		t.Fatalf("expected exactly 1 heartbeat, got %d", hbs)
	}
}

func TestWithHeartbeatsNoGap(t *testing.T) {
	tuples := []Tuple{tup(1, 1, 0), tup(2, 2, 1), tup(3, 3, 2)}
	src := NewWithHeartbeats(FromTuples(tuples), 1000)
	for _, it := range collect(src) {
		if it.Heartbeat {
			t.Fatal("heartbeat injected without an arrival gap")
		}
	}
}

func TestWithHeartbeatsPanicsOnBadInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("interval 0 did not panic")
		}
	}()
	NewWithHeartbeats(FromTuples(nil), 0)
}
