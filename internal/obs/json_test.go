package obs

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"time"
)

// jsonStrings are the strings whose escaping encoding/json treats
// specially: quotes and backslashes, every control byte, the HTML
// characters, U+2028/U+2029, multi-byte UTF-8 and invalid UTF-8.
var jsonStrings = []string{
	"", "plain", `a"b\c`, "<&>", "x\u2028y\u2029z", "\xff", "a\xfe\xffb",
	"\t\n\r\b\f\x00\x01\x1f\x7f", "héllo 日本 🙂", "\xe2\x80", "a\xc0\xafb",
	"\xed\xa0\x80", // a UTF-16 surrogate, invalid in UTF-8
}

func TestAppendJSONStringMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ss := append([]string(nil), jsonStrings...)
	alphabet := []byte("a\"\\<>&\n\x00\x7f\xe2\x80\xa8\xa9\xff\xc3")
	for i := 0; i < 5000; i++ {
		b := make([]byte, rng.Intn(12))
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		ss = append(ss, string(b))
	}
	for _, s := range ss {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendJSONString(nil, s); string(got) != string(want) {
			t.Fatalf("AppendJSONString(%q) = %s, json.Marshal = %s", s, got, want)
		}
	}
}

func TestAppendJSONFloatMatchesEncodingJSON(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-7, -1e-7, 1e-6, 9.99999e-7,
		123456.789, 1e20, 9.999999999999999e20, 1e21, -1e21, 1 << 53, 1<<53 + 1, 1e-320,
		math.SmallestNonzeroFloat64, math.MaxFloat64, 12345678901234567890, 1.5e-10, 2.5e100}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		vals = append(vals, math.Float64frombits(rng.Uint64()))
	}
	for _, v := range vals {
		want, wantErr := json.Marshal(v)
		got, err := AppendJSONFloat([]byte("x"), v)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("AppendJSONFloat(%v) error %v, json.Marshal error %v", v, err, wantErr)
		}
		if err != nil {
			if err.Error() != wantErr.Error() || string(got) != "x" {
				t.Fatalf("AppendJSONFloat(%v) = %q, %v; json.Marshal fails with %v", v, got, err, wantErr)
			}
			continue
		}
		if string(got[1:]) != string(want) {
			t.Fatalf("AppendJSONFloat(%v) = %s, json.Marshal = %s", v, got[1:], want)
		}
	}
}

// TestHistoryAppendJSONMatchesQuery holds History.AppendJSON to the bytes
// json.Marshal makes of History.Query's result, over windows, steps, name
// and label selections, escaped labels, a track with no point in the window,
// and a NaN point: replaced by a later point of its step bucket (encodable)
// and kept (the error json.Marshal returns).
func TestHistoryAppendJSONMatchesQuery(t *testing.T) {
	reg := NewRegistry()
	h, clk := newTestHistory(reg, time.Second, 10*time.Second) // 10 points retained
	start := clk.t.UnixMilli()
	odd := L("query", "q\"<&>\u2028\xff\\")
	c := reg.Counter("aq_t_total", "t", odd, L("stage", "a"))
	g := reg.Gauge("aq_t_gauge", "t", L("b", "2"), L("a", "1"))
	reg.Gauge("aq_t_gauge", "t", L("a", "1")).Set(-1e-7)
	hist := reg.Histogram("aq_t_ms", "t", []float64{1, 10}, odd)
	for i := 0; i < 14; i++ {
		c.Add(float64(i) * 123456.789)
		g.Set([]float64{0, math.Copysign(0, -1), 1e-7, 1e21, 1<<53 + 1}[i%5])
		hist.Observe(float64(i))
		h.Sample()
		clk.advance(time.Second)
	}
	late := reg.Gauge("aq_t_late", "t") // sampled once, long after the rest
	clk.advance(time.Minute)
	late.Set(3)
	h.Sample()
	now := clk.t.UnixMilli()

	queries := []HistoryQuery{
		{},
		{SinceMS: start + 6000},
		{SinceMS: now - 5000},
		{SinceMS: now + 1},
		{StepMS: 2000},
		{StepMS: 4000, SinceMS: start + 3000},
		{StepMS: 3_600_000},
		{Names: []string{"aq_t_ms"}},
		{Names: []string{"aq_t_ms_sum", "aq_t_gauge"}},
		{Labels: []Label{odd}},
		{Labels: []Label{L("a", "1")}, StepMS: 2000},
		{Names: []string{"aq_nosuch"}},
	}
	check := func(h *History, q HistoryQuery) {
		t.Helper()
		want, wantErr := json.Marshal(h.Query(q))
		got, err := h.AppendJSON([]byte("x"), q)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%+v: AppendJSON error %v, json.Marshal error %v", q, err, wantErr)
		}
		if err != nil {
			if err.Error() != wantErr.Error() {
				t.Fatalf("%+v: AppendJSON fails with %v, json.Marshal with %v", q, err, wantErr)
			}
			return
		}
		if string(got[1:]) != string(want) {
			t.Fatalf("%+v:\nAppendJSON   %s\njson.Marshal %s", q, got[1:], want)
		}
	}
	for _, q := range queries {
		check(h, q)
	}

	// A NaN first in its 2s bucket: the bucket's next point replaces it, and
	// at native resolution it stays and fails the encoding.
	nreg := NewRegistry()
	nh, nclk := newTestHistory(nreg, time.Second, time.Minute)
	ng := nreg.Gauge("aq_t_nan", "t")
	for _, v := range []float64{math.NaN(), 1, 2} {
		ng.Set(v)
		nh.Sample()
		nclk.advance(time.Second)
	}
	if _, err := nh.AppendJSON(nil, HistoryQuery{}); err == nil {
		t.Fatal("a NaN point encoded")
	}
	if _, err := nh.AppendJSON(nil, HistoryQuery{StepMS: 2000}); err != nil {
		t.Fatalf("a replaced NaN point failed the encoding: %v", err)
	}
	check(nh, HistoryQuery{})
	check(nh, HistoryQuery{StepMS: 2000})
}
