package core

import (
	"strings"
	"testing"
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

// aggressivePI is a fairly aggressive proportional response with a slow
// integral trim: gains that drive a controller through its clamps.
func aggressivePI() *PI {
	return &PI{Kp: 0.5, Ki: 0.1, MinFactor: 0.25, MaxFactor: 4}
}

func TestPIString(t *testing.T) {
	if s := aggressivePI().String(); !strings.Contains(s, "kp=") {
		t.Fatalf("String = %q", s)
	}
}

// TestHandlersOwnTheirPI: every handler runs a controller of its own with
// the package's gains.
func TestHandlersOwnTheirPI(t *testing.T) {
	cfg := defaultCfg(0.01)
	a, b := NewAQKSlack(cfg), NewAQKSlack(cfg)
	if a.pi == b.pi || *a.pi != (PI{Kp: 0.2, Ki: 0.02, MinFactor: 0.5, MaxFactor: 2}) {
		t.Errorf("handlers from one Config share a controller (%v) or run other gains: %s", a.pi == b.pi, a.pi)
	}
}
