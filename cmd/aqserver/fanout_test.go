package main

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/resilience"
)

// TestAppFanout runs the server with -fanout replicas: every spec gets
// three replica runners sharing one broadcast-ring producer, all of them
// must ingest the same stream, and a drain must flush every replica and
// leave no goroutine behind.
func TestAppFanout(t *testing.T) {
	base := steadyGoroutines()
	a, err := newApp(appConfig{n: 5000, rate: 2_000_000, fanout: 3,
		chaos: resilience.Chaos{ErrorRate: 0.001, DupRate: 0.001}, chaosOn: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(a.runners), 3*len(a.streams); got != want {
		t.Fatalf("%d runners for %d streams, want %d replicas", got, len(a.streams), want)
	}
	for _, g := range a.streams {
		if len(g) != 3 {
			t.Fatalf("stream has %d replicas, want 3", len(g))
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // stop the feed loops even if an assertion below fatals
	a.startFeeds(ctx)
	// Generous deadline: under -race on a small host, 12 replica runners
	// plus chaos-induced retry sleeps share one CPU. Progress is checked
	// before the clock so a slow-but-complete round still passes.
	deadline := time.Now().Add(60 * time.Second)
	for {
		progressed := 0
		for _, q := range a.runners {
			if q.status().TuplesIn > 500 {
				progressed++
			}
		}
		if progressed == len(a.runners) {
			break
		}
		if time.Now().After(deadline) {
			for _, q := range a.runners {
				t.Logf("%s: tuplesIn=%d health=%s", q.name, q.status().TuplesIn, q.healthState())
			}
			t.Fatal("replicas never started ingesting")
		}
		time.Sleep(5 * time.Millisecond)
	}

	cancel()
	a.drain()

	// Replicas of one stream consume the identical published sequence, so
	// after a full drain each group's accepted-tuple counters agree up to
	// what was still queued at cancel time — and every replica flushed.
	for gi, g := range a.streams {
		for _, q := range g {
			st := q.status()
			if !strings.HasPrefix(q.name, a.bases[gi]+"#") {
				t.Fatalf("replica name %q does not extend base %q", q.name, a.bases[gi])
			}
			if !st.Done {
				t.Fatalf("replica %s not finished after drain", q.name)
			}
			if st.Windows == 0 {
				t.Fatalf("replica %s flushed no windows", q.name)
			}
		}
	}
	settleGoroutines(t, base)
}
