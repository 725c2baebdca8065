package gen

import (
	"bytes"
	"cmp"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/delay"
	"repro/internal/stats"
	"repro/internal/stream"
)

// eventTimeSorted reports whether tuples are non-decreasing in event time.
func eventTimeSorted(ts []stream.Tuple) bool {
	return slices.IsSortedFunc(ts, func(a, b stream.Tuple) int { return cmp.Compare(a.TS, b.TS) })
}

func TestEventsAreEventOrderedAndDense(t *testing.T) {
	c := Config{N: 1000, Interval: 10, Delays: delay.Exponential{MeanD: 50}, Seed: 1}
	ev := c.Events()
	if len(ev) != 1000 {
		t.Fatalf("generated %d tuples", len(ev))
	}
	if !eventTimeSorted(ev) {
		t.Fatal("Events not event-time sorted")
	}
	for i, tp := range ev {
		if tp.Seq != uint64(i) {
			t.Fatalf("seq not dense at %d: %d", i, tp.Seq)
		}
		if tp.Arrival < tp.TS {
			t.Fatalf("arrival before event time: %v", tp)
		}
	}
	// Fixed interval: gaps exactly 10.
	for i := 1; i < len(ev); i++ {
		if ev[i].TS-ev[i-1].TS != 10 {
			t.Fatalf("fixed gap violated at %d: %d", i, ev[i].TS-ev[i-1].TS)
		}
	}
}

func TestArrivalsSortedByArrival(t *testing.T) {
	c := Config{N: 5000, Interval: 10, Delays: delay.ParetoWithMean(100, 1.5), Seed: 2}
	arr := c.Arrivals()
	for i := 1; i < len(arr); i++ {
		if arr[i].Arrival < arr[i-1].Arrival {
			t.Fatal("Arrivals not arrival sorted")
		}
	}
	d := stream.MeasureDisorder(arr)
	if d.OutOfOrder == 0 {
		t.Fatal("heavy-tailed delays produced zero disorder")
	}
}

func TestDeterministicForSeed(t *testing.T) {
	c := Config{N: 500, Interval: 7, Poisson: true, Delays: delay.Exponential{MeanD: 30},
		Values: UniformValue{Lo: 0, Hi: 10}, NumKeys: 8, Seed: 42}
	a := c.Arrivals()
	b := c.Arrivals()
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("tuple %d differs across runs: %v vs %v", i, a[i], b[i])
		}
	}
	c.Seed = 43
	dif := c.Arrivals()
	same := 0
	for i := range a {
		if a[i] == dif[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestZeroDelayMeansNoDisorder(t *testing.T) {
	c := Config{N: 1000, Interval: 3, Seed: 3}
	arr := c.Arrivals()
	if !eventTimeSorted(arr) {
		t.Fatal("zero-delay stream is out of order")
	}
	if d := stream.MeasureDisorder(arr); d.OutOfOrder != 0 {
		t.Fatalf("zero-delay disorder: %+v", d)
	}
}

func TestPoissonGapsHaveRightMean(t *testing.T) {
	c := Config{N: 100000, Interval: 20, Poisson: true, Seed: 4}
	ev := c.Events()
	span := ev[len(ev)-1].TS - ev[0].TS
	meanGap := float64(span) / float64(len(ev)-1)
	if math.Abs(meanGap-20) > 1 {
		t.Fatalf("poisson mean gap = %v, want ~20", meanGap)
	}
}

func TestKeysInRange(t *testing.T) {
	c := Config{N: 2000, Interval: 1, NumKeys: 16, Seed: 5}
	seen := map[uint64]bool{}
	for _, tp := range c.Events() {
		if tp.Key >= 16 {
			t.Fatalf("key out of range: %d", tp.Key)
		}
		seen[tp.Key] = true
	}
	if len(seen) < 12 {
		t.Fatalf("only %d/16 keys used", len(seen))
	}
}

func TestValueGens(t *testing.T) {
	rng := stats.NewRNG(6)
	if v := (ConstantValue{V: 9}).Value(0, 0, rng); v != 9 {
		t.Fatalf("ConstantValue = %v", v)
	}
	for i := 0; i < 1000; i++ {
		if v := (UniformValue{Lo: 5, Hi: 6}).Value(i, 0, rng); v < 5 || v >= 6 {
			t.Fatalf("UniformValue out of range: %v", v)
		}
		if v := (ParetoValue{Xm: 2, Alpha: 2}).Value(i, 0, rng); v < 2 {
			t.Fatalf("ParetoValue below scale: %v", v)
		}
	}
}

func TestRandomWalkBounds(t *testing.T) {
	rng := stats.NewRNG(7)
	g := &RandomWalk{Start: 100, Step: 10, Lo: 50, Hi: 150}
	for i := 0; i < 100000; i++ {
		v := g.Value(i, 0, rng)
		if v < 50-10 || v > 150+10 { // one reflection step of slack
			t.Fatalf("walk escaped bounds: %v", v)
		}
	}
}

func TestRandomWalkStartsAtStart(t *testing.T) {
	g := &RandomWalk{Start: 77, Step: 1}
	if v := g.Value(0, 0, stats.NewRNG(8)); v != 77 {
		t.Fatalf("walk first value = %v, want 77", v)
	}
}

func TestSinusoidPeriodicity(t *testing.T) {
	g := Sinusoid{Mean: 10, Amp: 5, Period: 1000}
	rng := stats.NewRNG(9)
	a := g.Value(0, 250, rng)  // sin peak
	b := g.Value(0, 1250, rng) // one period later
	if math.Abs(a-b) > 1e-9 {
		t.Fatalf("sinusoid not periodic: %v vs %v", a, b)
	}
	if math.Abs(a-15) > 1e-9 {
		t.Fatalf("sinusoid peak = %v, want 15", a)
	}
}

func TestSpikesFrequency(t *testing.T) {
	g := Spikes{Base: 1, Factor: 100, P: 0.1}
	rng := stats.NewRNG(10)
	spikes := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if g.Value(i, 0, rng) == 100 {
			spikes++
		}
	}
	if math.Abs(float64(spikes)/n-0.1) > 0.01 {
		t.Fatalf("spike rate = %v, want ~0.1", float64(spikes)/n)
	}
}

func TestCanonicalWorkloadsGenerate(t *testing.T) {
	for name, c := range map[string]Config{
		"sensor":       Sensor(2000, 1),
		"sensorBursty": SensorBursty(2000, 1),
		"sensorDrift":  SensorDrift(2000, 5000, 1),
		"stock":        Stock(2000, 100, 1),
		"cdr":          CDR(2000, 1),
	} {
		arr := c.Arrivals()
		if len(arr) != 2000 {
			t.Errorf("%s: generated %d tuples", name, len(arr))
			continue
		}
		d := stream.MeasureDisorder(arr)
		if d.OutOfOrder == 0 {
			t.Errorf("%s: no disorder generated (%v)", name, d)
		}
	}
}

func TestConfigString(t *testing.T) {
	s := Config{N: 10, Seed: 3}.String()
	if !strings.Contains(s, "n=10") {
		t.Fatalf("String = %q", s)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	c := CDR(500, 11)
	orig := c.Arrivals()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, orig); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if len(got) != len(orig) {
		t.Fatalf("round trip lost tuples: %d vs %d", len(got), len(orig))
	}
	for i := range got {
		if got[i] != orig[i] {
			t.Fatalf("tuple %d changed: %v vs %v", i, got[i], orig[i])
		}
	}
}

func TestTraceRoundTripProperty(t *testing.T) {
	rng := stats.NewRNG(12)
	f := func(n uint8) bool {
		tuples := make([]stream.Tuple, int(n%32))
		for i := range tuples {
			tuples[i] = stream.Tuple{
				TS:      int64(rng.Intn(1000)),
				Arrival: int64(rng.Intn(2000)),
				Seq:     uint64(i),
				Key:     uint64(rng.Intn(8)),
				Value:   rng.NormFloat64() * 1e6,
			}
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, tuples); err != nil {
			return false
		}
		got, err := ReadTrace(&buf)
		if err != nil {
			return false
		}
		if len(got) != len(tuples) {
			return false
		}
		for i := range got {
			if got[i] != tuples[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestReadTraceErrors(t *testing.T) {
	cases := map[string]string{
		"empty":      "",
		"bad header": "a,b,c,d,e\n",
		"bad ts":     "ts,arrival,seq,key,value\nx,1,2,3,4\n",
		"bad value":  "ts,arrival,seq,key,value\n1,1,2,3,zzz\n",
	}
	for name, in := range cases {
		if _, err := ReadTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadTrace accepted malformed input", name)
		}
	}
}

func TestSourceYieldsArrivalOrder(t *testing.T) {
	src := Sensor(500, 77).Source()
	var prev stream.Tuple
	first := true
	n := 0
	for {
		it, ok := src.Next()
		if !ok {
			break
		}
		n++
		if !first && it.Tuple.Arrival < prev.Arrival {
			t.Fatal("source not arrival ordered")
		}
		prev, first = it.Tuple, false
	}
	if n != 500 {
		t.Fatalf("source yielded %d items", n)
	}
}

func TestWithOracleWatermarksStructure(t *testing.T) {
	tuples := Sensor(1000, 78).Arrivals()
	items := WithOracleWatermarks(tuples, 50)
	var data, hbs int
	var lastWM stream.Time = -1
	for _, it := range items {
		if it.Heartbeat {
			hbs++
			if it.Watermark < lastWM {
				t.Fatalf("watermarks regressed: %d after %d", it.Watermark, lastWM)
			}
			lastWM = it.Watermark
		} else {
			data++
		}
	}
	if data != 1000 {
		t.Fatalf("data items %d, want 1000", data)
	}
	// Punctuations are suppressed while nothing is complete yet (the
	// ts=0 tuple can arrive deep into the stream), so expect at least
	// half the nominal count.
	if hbs < 1000/50/2 {
		t.Fatalf("too few punctuations: %d", hbs)
	}
	// Final watermark covers everything.
	var maxTS stream.Time
	for _, tp := range tuples {
		if tp.TS > maxTS {
			maxTS = tp.TS
		}
	}
	if lastWM != maxTS {
		t.Fatalf("final watermark %d, want max ts %d", lastWM, maxTS)
	}
}

func TestWithOracleWatermarksZeroEvery(t *testing.T) {
	tuples := Sensor(100, 79).Arrivals()
	items := WithOracleWatermarks(tuples, 0) // clamps to 1: punctuation after every tuple
	hbs := 0
	for _, it := range items {
		if it.Heartbeat {
			hbs++
		}
	}
	if hbs != 100 {
		t.Fatalf("hbs = %d, want one per tuple", hbs)
	}
}
