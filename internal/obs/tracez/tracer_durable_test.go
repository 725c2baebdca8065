package tracez

import (
	"testing"
	"time"
)

// Every kind and stage must render a stable, unique name — the Chrome
// exporter and dump files key on them.
func TestKindAndStageNames(t *testing.T) {
	kinds := []Kind{
		KindSourceBatch, KindShed, KindInsert, KindRelease, KindStraggler,
		KindKSet, KindKAdapt, KindQuality, KindEmit,
		KindFlush, KindRetry, KindBreakerTrip, KindPanic, KindViolation,
		KindViolationEnd, KindLog, KindRecovery, KindSnapshot,
	}
	seen := map[string]Kind{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || s == "unknown" {
			t.Errorf("kind %d renders %q", k, s)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("kinds %d and %d share name %q", prev, k, s)
		}
		seen[s] = k
	}
	if KindUnknown.String() != "unknown" || Kind(250).String() != "unknown" {
		t.Error("unknown kinds must render as unknown")
	}
	stages := []Stage{StageSource, StageBuffer, StageController, StageWindow, StageWatchdog, StageLog, StageDurable}
	names := map[string]bool{}
	for _, s := range stages {
		n := s.String()
		if n == "" || names[n] {
			t.Errorf("stage %d renders %q (empty or duplicate)", s, n)
		}
		names[n] = true
	}
}

func TestTracerDurableEvents(t *testing.T) {
	rec := NewRecorder(64)
	tr := New(rec, "q0")
	if tr.query != "q0" {
		t.Fatalf("query = %q", tr.query)
	}
	wd := NewWatchdog(0.02, func() time.Time { return time.Unix(0, 0) })
	tr.SetWatchdog(wd)
	if tr.wd != wd {
		t.Fatal("watchdog not attached")
	}

	tr.Recovery(10, 500, 7, 12)
	tr.Snapshot(20, 4821)
	tr.Flush(30)
	tr.Retry(40, 2)

	evs := rec.Events()
	want := []struct {
		kind  Kind
		stage Stage
	}{
		{KindRecovery, StageDurable},
		{KindSnapshot, StageDurable},
		{KindFlush, StageWindow},
		{KindRetry, StageSource},
	}
	if len(evs) != len(want) {
		t.Fatalf("%d events recorded, want %d", len(evs), len(want))
	}
	for i, w := range want {
		if evs[i].Kind != w.kind || evs[i].Stage != w.stage {
			t.Errorf("event %d = %s/%s, want %s/%s", i, evs[i].Kind, evs[i].Stage, w.kind, w.stage)
		}
	}
	if evs[0].N != 500 || evs[0].Win != 7 || evs[0].V != 12 {
		t.Errorf("recovery event payload %+v", evs[0])
	}
	if evs[1].N != 4821 {
		t.Errorf("snapshot event payload %+v", evs[1])
	}
}

// Nil tracers are the uninstrumented fast path: every method must be a
// no-op, never a panic.
func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	if tr.Recorder() != nil {
		t.Fatal("nil tracer accessors must return zero values")
	}
	tr.SetWatchdog(nil)
	tr.SetTheta(0.1)
	tr.OnDump(func(Dump) {})
	tr.Retry(0, 1)
	tr.Flush(0)
	tr.Recovery(0, 0, 0, 0)
	tr.Snapshot(0, 0)
}
