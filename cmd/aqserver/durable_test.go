package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/fanout"
	"repro/internal/snapjson"
	"repro/internal/stream"
	"repro/internal/window"
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
// ingesting without rewinding its synthetic event clock: its feed resumes
// past the arrival clock the engine recovered.
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
	firstWindows := map[string]int64{}
	for _, q := range a.runners {
		firstWindows[q.name] = q.status().Windows
	}
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
	}

	// The feed must resume past the dead process's event-time horizon: the
	// first batch each recovered query is fed lies past the arrival clock its
	// engine recovered. A probe on the ring sees that batch.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	clocks := make([]stream.Time, len(b.runners))
	probes := make([]*fanout.Sub, len(b.runners))
	for i, q := range b.runners {
		q.mu.Lock()
		clocks[i] = q.exec.Now()
		q.mu.Unlock()
		probes[i] = b.rings[i].Subscribe("probe", fanout.Block)
	}
	b.startFeeds(ctx2)
	for i, q := range b.runners {
		items, seq, ok, err := probes[i].NextBatch(ctx2)
		if !ok || err != nil {
			t.Fatalf("%s: probe saw no batch: %v", q.name, err)
		}
		for _, it := range items {
			if !q.grouped && (it.Tuple.TS <= clocks[i] || it.Tuple.Arrival <= clocks[i]) {
				t.Errorf("%s: resumed feed rewinds event time: tuple (ts %d, arrival %d) at or before the recovered clock %d",
					q.name, it.Tuple.TS, it.Tuple.Arrival, clocks[i])
				break
			}
		}
		probes[i].Release(seq)
		probes[i].Unsubscribe()
	}

	// The recovered runners keep working: feed more and watch counters move.
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
	// The window count is the operator's, restored and advanced by the
	// replay: it continues from the first app's instead of starting over.
	for _, q := range b.runners {
		if got, want := q.status().Windows, firstWindows[q.name]; !q.grouped && got < want {
			t.Errorf("%s: %d windows emitted after the restart, fewer than the first app's %d", q.name, got, want)
		}
	}
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

// TestRestoresLegacyHostSnapshot: testdata/legacy-snapshot is a durable
// directory an earlier server wrote — sensorItems(6000, 31)[:2400] stepped in
// batches of 64 through the adaptive runner below, with SnapshotEvery 1500,
// then the process dropped: one snapshot at 1 536 items, which still carries
// the host keys "query", "feedBase" and "counters", and a journal suffix of
// 864. It restores through durable.Open and the engine's recovery; its
// windowsEmitted is the snapshot's operator count plus what the replay
// emits, which is what a runner that was never interrupted reads; and it
// continues to the bit as that runner does.
func TestRestoresLegacyHostSnapshot(t *testing.T) {
	dir := t.TempDir()
	const src = "testdata/legacy-snapshot"
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	var snapOps int64
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(e.Name(), "snap-") {
			continue
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(data, &keys); err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"query", "feedBase", "counters"} {
			if keys[k] == nil {
				t.Fatalf("test data: %s has no %q key", e.Name(), k)
			}
		}
		var snap durable.Snapshot
		if err := snapjson.Unmarshal(data, &snap); err != nil {
			t.Fatal(err)
		}
		snapOps = snap.Op.Stats.Emitted + snap.Op.Stats.Refinements
	}
	if snapOps == 0 {
		t.Fatal("test data: no snapshot with emitted windows")
	}

	def := runnerDef{name: "legacy-sum", theta: 0.005,
		spec: window.Spec{Size: 4 * stream.Second, Slide: stream.Second}, agg: window.Sum()}
	items := sensorItems(6000, 31)
	const applied = 2400
	if def.dlog, err = durable.Open(durable.Options{Dir: dir, CommitEvery: 64, SnapshotEvery: 1500}); err != nil {
		t.Fatal(err)
	}
	q := adaptiveRunner(t, def)
	st := q.status()
	rec := st.Recovery
	if rec == nil || !rec.FromSnapshot || rec.ReplayedItems != 864 || rec.DurableItems != applied || st.TuplesIn != applied {
		t.Fatalf("recovery %+v with %d tuples in, want the snapshot, 864 replayed and %d durable", rec, st.TuplesIn, applied)
	}
	replayed := int64(rec.SuppressedResults + len(q.recentResults(0)))
	if st.Windows != snapOps+replayed {
		t.Fatalf("windowsEmitted %d, want the snapshot's %d plus the replay's %d", st.Windows, snapOps, replayed)
	}

	def.dlog = nil
	ref := adaptiveRunner(t, def)
	feedBatches(ref, items[:applied], 64)
	if want := ref.status().Windows; st.Windows != want {
		t.Fatalf("windowsEmitted %d after recovery, %d without the interruption", st.Windows, want)
	}
	feedBatches(q, items[applied:], 64)
	feedBatches(ref, items[applied:], 64)
	q.finish()
	ref.finish()
	got, want := q.status(), ref.status()
	if got.Windows != want.Windows || got.TuplesIn != want.TuplesIn || got.K != want.K ||
		got.Adaptations != want.Adaptations || got.RealizedErr != want.RealizedErr {
		t.Fatalf("recovered runner diverged:\n%+v\nan uninterrupted one:\n%+v", got, want)
	}
	results := q.recentResults(0)
	if len(results) < 20 || !reflect.DeepEqual(results, ref.recentResults(len(results))) {
		t.Fatalf("the %d results since recovery differ from an uninterrupted runner's", len(results))
	}
}
