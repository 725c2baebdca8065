package core

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/stream"
)

func TestPIProportionalResponse(t *testing.T) {
	c := &PI{Kp: 0.5, Ki: 0, MinFactor: 0.25, MaxFactor: 4}
	if f := c.Update(0); f != 1 {
		t.Fatalf("zero deviation factor = %v, want 1", f)
	}
	if f := c.Update(1); f != 1.5 {
		t.Fatalf("sig=1 factor = %v, want 1.5", f)
	}
	if f := c.Update(-1); f != 0.5 {
		t.Fatalf("sig=-1 factor = %v, want 0.5", f)
	}
}

func TestPIClamping(t *testing.T) {
	c := &PI{Kp: 10, Ki: 0, MinFactor: 0.25, MaxFactor: 4}
	if f := c.Update(100); f != 4 {
		t.Fatalf("factor not clamped high: %v", f)
	}
	if f := c.Update(-100); f != 0.25 {
		t.Fatalf("factor not clamped low: %v", f)
	}
}

func TestPIIntegralAccumulates(t *testing.T) {
	c := &PI{Kp: 0, Ki: 0.1, MinFactor: 0.25, MaxFactor: 4}
	f1 := c.Update(1)
	f2 := c.Update(1)
	if f2 <= f1 {
		t.Fatalf("integral did not accumulate: %v then %v", f1, f2)
	}
}

func TestPIAntiWindup(t *testing.T) {
	c := &PI{Kp: 0, Ki: 0.1, MinFactor: 0.25, MaxFactor: 4}
	for i := 0; i < 1000; i++ {
		c.Update(10)
	}
	// After long saturation, a single opposite sample must start moving
	// the factor promptly (bounded integral).
	before := c.Update(0)
	for i := 0; i < 40; i++ {
		c.Update(-10)
	}
	after := c.Update(0)
	if after >= before {
		t.Fatalf("anti-windup failed: factor stuck at %v -> %v", before, after)
	}
}

func TestPIReset(t *testing.T) {
	c := DefaultPI()
	c.Update(5)
	if c.Integral() == 0 {
		t.Fatal("integral not accumulating")
	}
	c.Reset()
	if c.Integral() != 0 {
		t.Fatal("Reset did not clear integral")
	}
}

func TestPIString(t *testing.T) {
	if s := DefaultPI().String(); !strings.Contains(s, "kp=") {
		t.Fatalf("String = %q", s)
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{
		ModeHybrid: "hybrid", ModeModelOnly: "model", ModePIOnly: "pi", ModePOnly: "p",
	} {
		if got := m.String(); got != want {
			t.Errorf("Mode(%d).String() = %q, want %q", m, got, want)
		}
	}
}

// TestHandlersOwnTheirPI: a Config's PI is gains to copy, not a controller
// to share. Two handlers built from one Config with a caller-supplied PI,
// fed in alternation, decide exactly as two built from separate Configs,
// and neither the feedback nor ModePOnly's zeroed integral gain reaches the
// caller's struct.
func TestHandlersOwnTheirPI(t *testing.T) {
	tuples := driftTuples(20_000, 53)
	gains := func() *PI { return &PI{Kp: 0.4, Ki: 0.05, MinFactor: 0.5, MaxFactor: 3} }
	cfgWith := func(pi *PI) Config {
		c := defaultCfg(0.01)
		c.PI = pi
		return c
	}
	run := func(hs ...*AQKSlack) {
		var ps []*pipe
		for _, h := range hs {
			ps = append(ps, newPipe(h, h.cfg.Spec, h.cfg.Agg))
		}
		for _, tp := range tuples {
			for _, p := range ps {
				p.insert(stream.DataItem(tp), tp.Arrival)
			}
		}
	}
	shared := gains()
	one := cfgWith(shared)
	a, b := NewAQKSlack(one), NewAQKSlack(one)
	run(a, b)
	alone := NewAQKSlack(cfgWith(gains()))
	run(alone)
	for name, h := range map[string]*AQKSlack{"first": a, "second": b} {
		if !slices.Equal(h.Trace(), alone.Trace()) {
			t.Errorf("%s of two handlers sharing a Config decided differently from one built alone", name)
		}
	}
	if *shared != *gains() {
		t.Errorf("handlers wrote to the caller's PI: %+v", *shared)
	}
	if a.pi.Integral() == 0 || a.pi.Clamps() != alone.pi.Clamps() {
		t.Errorf("handler PI state: integral %v, clamps %d (alone %d)", a.pi.Integral(), a.pi.Clamps(), alone.pi.Clamps())
	}

	pOnly := gains()
	kc := cfgWith(pOnly)
	kc.Mode = ModePOnly
	k := NewAQKSlack(kc)
	j := NewAQJoin(JoinConfig{Recall: 0.99, Band: 500, Mode: ModePOnly, PI: pOnly})
	if *pOnly != *gains() {
		t.Errorf("ModePOnly zeroed the caller's integral gain: %+v", *pOnly)
	}
	if k.pi.Ki != 0 || j.pi.Ki != 0 {
		t.Errorf("ModePOnly handlers kept an integral gain: loss model %v, recall model %v", k.pi.Ki, j.pi.Ki)
	}
}
