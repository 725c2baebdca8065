package main

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// durableCfg is the test app configuration with durability on.
func durableCfg(dir string) appConfig {
	return appConfig{
		n: 5000, rate: 2_000_000, batch: 16,
		durableDir: dir, snapshotEvery: 2000,
	}
}

// TestDurableRestartRecovers is the in-process restart test: run the app
// with -durable-dir, drain it, then build a second app over the same
// directory. Every non-grouped query must come back recovered — state
// restored, counters continued, /readyz reporting the recovery — and keep
// ingesting without rewinding its synthetic event clock.
func TestDurableRestartRecovers(t *testing.T) {
	dir := t.TempDir()
	goroutines := runtime.NumGoroutine()

	a, err := newApp(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // stop the feeds even if an assertion fatals
	a.startFeeds(ctx)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st := a.runners[0].status(); st.TuplesIn > 6000 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first app never ingested 6000 tuples")
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	a.drain()
	first := a.runners[0].status()
	if !first.Durable {
		t.Fatal("runner not marked durable")
	}
	if first.JournalErrs != 0 {
		t.Fatalf("journal errors during first run: %d", first.JournalErrs)
	}

	b, err := newApp(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		b.drain()
	}()

	rd := b.srv.readiness()
	if len(rd.Recovered) == 0 {
		t.Fatal("/readyz reports no recovered queries after restart")
	}
	for _, q := range b.runners {
		if q.grouped {
			if q.dlog != nil {
				t.Errorf("%s: grouped runner unexpectedly durable", q.name)
			}
			continue
		}
		st := q.status()
		if st.Recovery == nil {
			t.Errorf("%s: no recovery info after restart", q.name)
			continue
		}
		if st.Recovery.DurableItems == 0 {
			t.Errorf("%s: recovery preserved zero items", q.name)
		}
		if !st.Recovery.FromSnapshot && st.Recovery.ReplayedItems == 0 {
			t.Errorf("%s: recovery neither restored a snapshot nor replayed the journal", q.name)
		}
		if st.TuplesIn == 0 {
			t.Errorf("%s: tuplesIn counter not continued across restart", q.name)
		}
		if got := rd.Recovered[q.name]; got == nil {
			t.Errorf("%s: missing from /readyz recovered map", q.name)
		}
		// The feed must resume past the dead process's event-time horizon.
		if q.resumeBase() == 0 {
			t.Errorf("%s: feed rebase not restored from snapshot", q.name)
		}
	}

	// The recovered runners keep working: feed more and watch counters move.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	b.startFeeds(ctx2)
	base := b.runners[0].status().TuplesIn
	deadline = time.Now().Add(10 * time.Second)
	for {
		if st := b.runners[0].status(); st.TuplesIn > base+2000 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("recovered app never resumed ingesting")
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel2()
	b.drain()
	settleGoroutines(t, goroutines)
}

// TestDurableSuppressionAfterRestart verifies exactly-once emission across
// a restart: windows whose emission was durably recorded before shutdown
// are suppressed on replay, not re-delivered into the result ring.
func TestDurableSuppressionAfterRestart(t *testing.T) {
	dir := t.TempDir()
	goroutines := runtime.NumGoroutine()
	// No snapshots: recovery replays the whole journal, so every window
	// emitted (non-flush) before the shutdown must be suppressed on replay.
	cfg := durableCfg(dir)
	cfg.snapshotEvery = 0
	a, err := newApp(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	a.startFeeds(ctx)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st := a.runners[0].status(); st.Windows > 20 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first app never emitted 20 windows")
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	a.drain()

	b, err := newApp(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.drain()
	st := b.runners[0].status()
	if st.Recovery == nil {
		t.Fatal("no recovery info")
	}
	if st.Recovery.ReplayedItems == 0 {
		t.Fatal("journal-only recovery replayed nothing")
	}
	if st.Recovery.SuppressedResults == 0 {
		t.Errorf("replayed %d items but suppressed no duplicate emissions (emitted before shutdown: %d)",
			st.Recovery.ReplayedItems, a.runners[0].status().Windows)
	}
	b.drain()
	settleGoroutines(t, goroutines)
}
