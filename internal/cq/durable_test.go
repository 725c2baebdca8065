package cq

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/window"
)

// errCrash is the synthetic process death used by the crash tests: the
// source fails at a chosen position and the journal is abandoned
// (uncommitted writes dropped), exactly what a SIGKILL leaves behind.
var errCrash = errors.New("injected crash")

// crashSource yields items[:n] then fails.
type crashSource struct {
	items []stream.Item
	n     int
	pos   int
}

func (s *crashSource) NextErr() (stream.Item, bool, error) {
	if s.pos >= s.n {
		return stream.Item{}, false, errCrash
	}
	it := s.items[s.pos]
	s.pos++
	return it, true, nil
}

func sensorItems(n int, seed uint64) []stream.Item {
	return stream.Collect(gen.Sensor(n, seed).Source())
}

// emitFloorPrefix counts the leading results of ref already covered by the
// durable emission floor.
func emitFloorPrefix(ref []window.Result, rec *RecoveryInfo) int {
	if rec == nil || !rec.HaveEmit {
		return 0
	}
	k := 0
	for _, r := range ref {
		if !r.Refinement && r.Idx < rec.EmitProgress {
			k++
		}
	}
	return k
}

func mustOpenLog(t *testing.T, opts durable.Options) *durable.QueryLog {
	t.Helper()
	l, err := durable.Open(opts)
	if err != nil {
		t.Fatalf("durable.Open: %v", err)
	}
	return l
}

// A durable run with no prior state must produce exactly the output of a
// plain run, while leaving journal segments and snapshots behind.
func TestDurableFreshRunMatchesPlain(t *testing.T) {
	items := sensorItems(4000, 11)
	mk := func() *AggQuery {
		return New(stream.NewSliceSource(items)).
			Handle(buffer.NewKSlack(2000)).
			Window(testSpec, window.Sum())
	}
	plain, err := mk().Run()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	log := mustOpenLog(t, durable.Options{Dir: dir, SnapshotEvery: 1000})
	rep, err := mk().Durable(Durable{Log: log}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if rep.Recovery != nil {
		t.Fatal("fresh durable run reported a recovery")
	}
	if !reflect.DeepEqual(rep.Results, plain.Results) {
		t.Fatalf("durable results differ from plain run (%d vs %d)", len(rep.Results), len(plain.Results))
	}
	if rep.Handler != plain.Handler || rep.Op != plain.Op || rep.PreFlush != plain.PreFlush {
		t.Fatal("durable stats differ from plain run")
	}
	if log.Items() != uint64(len(items)) {
		t.Fatalf("journal items = %d, want %d", log.Items(), len(items))
	}

	// Everything is journaled and snapshotted: a fresh process recovers it.
	log2 := mustOpenLog(t, durable.Options{Dir: dir})
	rec := log2.Recovery()
	log2.Close()
	if rec == nil || !rec.Recovered {
		t.Fatal("completed run left nothing to recover")
	}
	if rec.Snapshot == nil {
		t.Fatal("no snapshot written at SnapshotEvery cadence")
	}
	if rec.Items != uint64(len(items)) {
		t.Fatalf("recovered items = %d, want %d", rec.Items, len(items))
	}
}

// Crash mid-stream with every item committed (CommitEvery 1): the recovered
// run, fed the remaining input, must continue the uninterrupted run exactly
// — same results past the durable emission floor, same stats.
func TestDurableRunCrashRecovery(t *testing.T) {
	items := sensorItems(3000, 23)
	full, err := New(stream.NewSliceSource(items)).
		Handle(buffer.NewKSlack(2000)).
		Window(testSpec, window.Sum()).
		Run()
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []int{211, 1500, 2765} {
		dir := t.TempDir()
		log := mustOpenLog(t, durable.Options{Dir: dir, CommitEvery: 1, SnapshotEvery: 400})
		q := NewFallible(&crashSource{items: items, n: c}).
			Handle(buffer.NewKSlack(2000)).
			Window(testSpec, window.Sum())
		if _, err := q.Durable(Durable{Log: log}).Run(); !errors.Is(err, errCrash) {
			t.Fatalf("crash at %d: err = %v", c, err)
		}
		log.Abandon()

		log2 := mustOpenLog(t, durable.Options{Dir: dir, CommitEvery: 1, SnapshotEvery: 400})
		rep, err := New(stream.NewSliceSource(items[c:])).
			Handle(buffer.NewKSlack(2000)).
			Window(testSpec, window.Sum()).
			Durable(Durable{Log: log2}).
			Run()
		if err != nil {
			t.Fatalf("recovered run at %d: %v", c, err)
		}
		log2.Close()

		if rep.Recovery == nil {
			t.Fatalf("crash at %d: no recovery info", c)
		}
		if got := rep.Recovery.ReplayedItems + int(0); rep.Recovery.FromSnapshot {
			// With a snapshot the replay covers only the suffix past it.
			if got >= c && c > 400 {
				t.Fatalf("crash at %d: snapshot did not shorten replay (%d)", c, got)
			}
		} else if rep.Recovery.ReplayedItems != c {
			t.Fatalf("crash at %d: journal-only replay of %d items", c, rep.Recovery.ReplayedItems)
		}

		k := emitFloorPrefix(full.Results, rep.Recovery)
		if !reflect.DeepEqual(rep.Results, full.Results[k:]) {
			t.Fatalf("crash at %d: recovered results (%d) != uninterrupted suffix (%d, floor %d)",
				c, len(rep.Results), len(full.Results)-k, k)
		}
		if rep.Handler != full.Handler {
			t.Fatalf("crash at %d: handler stats diverged:\n got %+v\nwant %+v", c, rep.Handler, full.Handler)
		}
		if rep.Op != full.Op {
			t.Fatalf("crash at %d: op stats diverged:\n got %+v\nwant %+v", c, rep.Op, full.Op)
		}
		if rep.Recovery.HaveEmit && rep.PreFlush != full.PreFlush-k {
			t.Fatalf("crash at %d: PreFlush %d, want %d", c, rep.PreFlush, full.PreFlush-k)
		}
		if rep.Disorder != full.Disorder {
			t.Fatalf("crash at %d: disorder stats diverged", c)
		}
	}
}

// The same crash-and-recover contract must hold for the adaptive
// quality-driven handler: controller, estimator and RNG state all resume
// exactly, so the recovered run's slack decisions match the uninterrupted
// run's.
func TestDurableCrashRecoveryAdaptiveHandler(t *testing.T) {
	items := sensorItems(6000, 7)
	mkHandler := func() *core.AQKSlack {
		return core.NewAQKSlack(core.Config{
			Theta:        0.05,
			Spec:         testSpec,
			Agg:          window.Sum(),
			WarmupTuples: 200,
			Estimator:    core.EstimatorConfig{Seed: 99, ReservoirSize: 128, MCTrials: 4},
		})
	}
	full, err := New(stream.NewSliceSource(items)).
		Handle(mkHandler()).
		Window(testSpec, window.Sum()).
		Run()
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []int{1234, 4321} {
		dir := t.TempDir()
		log := mustOpenLog(t, durable.Options{Dir: dir, CommitEvery: 1, SnapshotEvery: 500})
		q := NewFallible(&crashSource{items: items, n: c}).
			Handle(mkHandler()).Window(testSpec, window.Sum())
		if _, err := q.Durable(Durable{Log: log}).Run(); !errors.Is(err, errCrash) {
			t.Fatalf("crash at %d: err = %v", c, err)
		}
		log.Abandon()

		log2 := mustOpenLog(t, durable.Options{Dir: dir, CommitEvery: 1, SnapshotEvery: 500})
		rep, err := New(stream.NewSliceSource(items[c:])).
			Handle(mkHandler()).
			Window(testSpec, window.Sum()).
			Durable(Durable{Log: log2}).
			Run()
		if err != nil {
			t.Fatalf("recovered run at %d: %v", c, err)
		}
		log2.Close()

		k := emitFloorPrefix(full.Results, rep.Recovery)
		if !reflect.DeepEqual(rep.Results, full.Results[k:]) {
			t.Fatalf("crash at %d: adaptive recovered results diverge (%d vs %d past floor %d)",
				c, len(rep.Results), len(full.Results)-k, k)
		}
		if rep.Handler != full.Handler {
			t.Fatalf("crash at %d: adaptive handler stats diverged:\n got %+v\nwant %+v", c, rep.Handler, full.Handler)
		}
	}
}

// TestDurableRestoresShadowSnapshot: a snapshot written while the adaptive
// handler still ran its own shadow windows (testdata/aq-snapshot-shadow, 600
// items into the stream below) restores without error. Its "shadow", "full"
// and "emitted" windows are ignored: the windows then in flight lose their
// realized-error sample, and every window the restored operator emits is
// reported again.
func TestDurableRestoresShadowSnapshot(t *testing.T) {
	spec := window.Spec{Size: 1000, Slide: 250}
	aq := core.NewAQKSlack(core.Config{Theta: 0.02, Spec: spec, Agg: window.Sum(), WarmupTuples: 50,
		Estimator: core.EstimatorConfig{Seed: 3, ReservoirSize: 16, MCTrials: 2}})
	dir := t.TempDir()
	snaps, err := filepath.Glob("testdata/aq-snapshot-shadow/snap-*.json")
	if err != nil || len(snaps) != 1 {
		t.Fatalf("testdata snapshot: %v %v", snaps, err)
	}
	raw, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, filepath.Base(snaps[0])), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	log := mustOpenLog(t, durable.Options{Dir: dir, CommitEvery: 1})
	defer log.Close()
	x, err := NewExec(New(nil).Handle(aq).Window(spec, window.Sum()).Durable(Durable{Log: log}), nil)
	if err != nil {
		t.Fatalf("a snapshot with shadow windows did not restore: %v", err)
	}
	if rec := x.Report().Recovery; rec == nil || !rec.FromSnapshot {
		t.Fatalf("recovery %+v, want the snapshot", rec)
	}
	before := aq.Quality()
	c := gen.Sensor(2000, 7)
	c.Interval = 10
	var items []stream.Item
	for _, tp := range c.Arrivals() {
		items = append(items, stream.DataItem(tp))
	}
	for i := 600; i < len(items); i += 100 {
		if err := x.Step(items[i:min(i+100, len(items))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := x.Finish(); err != nil {
		t.Fatal(err)
	}
	after := aq.Quality()
	if before.Adaptations == 0 || after.Adaptations <= before.Adaptations || after.FinalizedWins <= before.FinalizedWins {
		t.Fatalf("the restored controller did not carry on: %+v, then %+v", before, after)
	}
}

// RunConcurrent: crash the pipeline mid-stream, recover with a second
// RunConcurrent. CommitEvery 1 pins the durable prefix to the crash point,
// so the recovered output must equal the uninterrupted run past the floor.
func TestDurableRunConcurrentCrashRecovery(t *testing.T) {
	items := sensorItems(3000, 29)
	full, err := New(stream.NewSliceSource(items)).
		Handle(buffer.NewKSlack(2000)).
		Window(testSpec, window.Sum()).
		Run()
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []int{500, 2200} {
		dir := t.TempDir()
		log := mustOpenLog(t, durable.Options{Dir: dir, CommitEvery: 1, SnapshotEvery: 300})
		q := NewFallible(&crashSource{items: items, n: c}).
			Handle(buffer.NewKSlack(2000)).Window(testSpec, window.Sum())
		if _, err := q.Durable(Durable{Log: log}).RunConcurrent(context.Background(), nil); !errors.Is(err, errCrash) {
			t.Fatalf("crash at %d: err = %v", c, err)
		}
		log.Abandon()

		log2 := mustOpenLog(t, durable.Options{Dir: dir, CommitEvery: 1, SnapshotEvery: 300})
		var sunk []window.Result
		rep, err := New(stream.NewSliceSource(items[c:])).
			Handle(buffer.NewKSlack(2000)).
			Window(testSpec, window.Sum()).
			Durable(Durable{Log: log2}).
			RunConcurrent(context.Background(), func(r window.Result) { sunk = append(sunk, r) })
		if err != nil {
			t.Fatalf("recovered run at %d: %v", c, err)
		}
		log2.Close()

		if rep.Recovery == nil {
			t.Fatalf("crash at %d: no recovery info", c)
		}
		k := emitFloorPrefix(full.Results, rep.Recovery)
		if !reflect.DeepEqual(rep.Results, full.Results[k:]) {
			t.Fatalf("crash at %d: concurrent recovered results diverge (%d vs %d past floor %d)",
				c, len(rep.Results), len(full.Results)-k, k)
		}
		if !reflect.DeepEqual(sunk, rep.Results) {
			t.Fatalf("crash at %d: sink saw %d results, report has %d", c, len(sunk), len(rep.Results))
		}
		if rep.Handler != full.Handler {
			t.Fatalf("crash at %d: handler stats diverged", c)
		}
	}
}

// TestDurableRingLoopCommitsPerBatch: the ring loop group-commits the journal
// once per ring batch it steps, whatever the log's item cadence — a crash
// loses at most the batch in flight — and Finish once more.
func TestDurableRingLoopCommitsPerBatch(t *testing.T) {
	reg := obs.NewRegistry()
	metrics := durable.NewMetrics(reg)
	log := mustOpenLog(t, durable.Options{Dir: t.TempDir(), CommitEvery: 1 << 30, Metrics: metrics})
	defer log.Close()
	telem := NewTelemetry(reg, "q", testSpec)
	items := sensorItems(5000, 41)
	_, err := NewFallible(stream.AsErrSource(stream.NewSliceSource(items))).Batch(64).
		Handle(buffer.NewKSlack(2000)).Window(testSpec, window.Sum()).Instrument(telem).
		Durable(Durable{Log: log}).RunConcurrent(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	batches := telem.IngestBatch.Count()
	if batches < uint64(len(items)/64) {
		t.Fatalf("%d items in %d ring batches of at most 64", len(items), batches)
	}
	if commits := metrics.Commits.Value(); commits != float64(batches+1) {
		t.Fatalf("%d ring batches and Finish made %v journal commits, want one each (%d)", batches, commits, batches+1)
	}
}

// Clean stop + continue: complete a durable RunConcurrent over a prefix,
// then resume a second process over the remainder. The second run must
// replay into the uninterrupted run's trajectory.
func TestDurableStopAndContinueConcurrent(t *testing.T) {
	items := sensorItems(2400, 31)
	cut := 1500
	full, err := New(stream.NewSliceSource(items)).
		Handle(buffer.NewKSlack(2000)).
		Window(testSpec, window.Sum()).
		Run()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	log := mustOpenLog(t, durable.Options{Dir: dir, SnapshotEvery: 400})
	if _, err := New(stream.NewSliceSource(items[:cut])).
		Handle(buffer.NewKSlack(2000)).
		Window(testSpec, window.Sum()).
		Durable(Durable{Log: log}).
		RunConcurrent(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	log2 := mustOpenLog(t, durable.Options{Dir: dir, SnapshotEvery: 400})
	rep, err := New(stream.NewSliceSource(items[cut:])).
		Handle(buffer.NewKSlack(2000)).
		Window(testSpec, window.Sum()).
		Durable(Durable{Log: log2}).
		RunConcurrent(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	log2.Close()

	if rep.Recovery == nil || !rep.Recovery.FromSnapshot {
		t.Fatalf("second run did not recover from a snapshot: %+v", rep.Recovery)
	}
	k := emitFloorPrefix(full.Results, rep.Recovery)
	if !reflect.DeepEqual(rep.Results, full.Results[k:]) {
		t.Fatalf("continuation results diverge (%d vs %d past floor %d)",
			len(rep.Results), len(full.Results)-k, k)
	}
}

func TestDurableValidate(t *testing.T) {
	src := gen.Sensor(10, 1).Source()
	if _, err := New(src).Window(testSpec, window.Sum()).GroupBy().
		Durable(Durable{Log: &durable.QueryLog{}}).Run(); err == nil {
		t.Fatal("grouped durable query accepted")
	}
	if _, err := New(src).Window(testSpec, window.Sum()).
		Durable(Durable{}).Run(); err == nil {
		t.Fatal("durable query with nil log accepted")
	}
}

// The property a one-goroutine intake buys (a two-goroutine pipeline had to
// ship the disorder accumulator with every batch to get it): wherever a
// durable RunConcurrent cuts a snapshot — mid-stream, with the source
// running ahead in the ring — the snapshot is what a durable Run cutting at
// the same item writes, disorder accumulator included, and both directories
// recover to the same continuation. The two differ only in the journal
// record count: Run journals the emission cursor per item, RunConcurrent
// per batch.
func TestDurableRunConcurrentSnapshotsMatchRun(t *testing.T) {
	items := sensorItems(3000, 37)
	const crashAt = 1777 // a multiple of no batch size below
	build := func(src stream.ErrSource) *AggQuery {
		return NewFallible(src).
			Handle(buffer.NewKSlack(2000)).
			Window(testSpec, window.Sum())
	}
	// lastSnapshot reopens dir and returns its newest snapshot, record count
	// blanked, as the bytes written, plus the journal suffix behind it.
	lastSnapshot := func(dir string) (snap *durable.Snapshot, data []byte, suffix int) {
		t.Helper()
		l := mustOpenLog(t, durable.Options{Dir: dir})
		defer l.Close()
		rec := l.Recovery()
		if rec == nil || rec.Snapshot == nil {
			t.Fatalf("%s: no snapshot to compare", dir)
		}
		snap = rec.Snapshot
		blank := *snap
		blank.Records = 0
		data, err := json.Marshal(blank)
		if err != nil {
			t.Fatal(err)
		}
		return snap, data, len(rec.Suffix)
	}
	resume := func(dir string) *AggReport {
		t.Helper()
		l := mustOpenLog(t, durable.Options{Dir: dir})
		defer l.Close()
		rep, err := build(stream.AsErrSource(stream.NewSliceSource(items[crashAt:]))).Durable(Durable{Log: l}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	for _, batch := range []int{1, 7, 64} {
		concDir, syncDir := t.TempDir(), t.TempDir()
		log := mustOpenLog(t, durable.Options{Dir: concDir, CommitEvery: 1, SnapshotEvery: 500})
		_, err := build(&crashSource{items: items, n: crashAt}).Batch(batch).Durable(Durable{Log: log}).
			RunConcurrent(context.Background(), nil)
		if !errors.Is(err, errCrash) {
			t.Fatalf("batch %d: err = %v", batch, err)
		}
		log.Abandon()
		conc, concBytes, concSuffix := lastSnapshot(concDir)
		if conc.Items == 0 || 2*conc.Items <= uint64(crashAt) {
			t.Fatalf("batch %d: last snapshot at journal item %d; the cadence is off", batch, conc.Items)
		}

		// Run cuts one snapshot, at the same journal item.
		log = mustOpenLog(t, durable.Options{Dir: syncDir, CommitEvery: 1, SnapshotEvery: int64(conc.Items)})
		if _, err := build(&crashSource{items: items, n: crashAt}).Durable(Durable{Log: log}).Run(); !errors.Is(err, errCrash) {
			t.Fatalf("batch %d: reference err = %v", batch, err)
		}
		log.Abandon()
		ref, refBytes, refSuffix := lastSnapshot(syncDir)
		if ref.Items != conc.Items || refSuffix != concSuffix {
			t.Fatalf("batch %d: cuts differ: Run at item %d (+%d journaled), RunConcurrent at %d (+%d)",
				batch, ref.Items, refSuffix, conc.Items, concSuffix)
		}
		if !bytes.Equal(concBytes, refBytes) {
			t.Fatalf("batch %d: snapshots at journal item %d differ:\nRunConcurrent %s\nRun           %s",
				batch, conc.Items, concBytes, refBytes)
		}

		got, want := resume(concDir), resume(syncDir)
		if !reflect.DeepEqual(got.Results, want.Results) || got.Handler != want.Handler ||
			got.Op != want.Op || got.Disorder != want.Disorder || got.PreFlush != want.PreFlush {
			t.Fatalf("batch %d: continuations diverge: %d results vs %d, disorder %+v vs %+v",
				batch, len(got.Results), len(want.Results), got.Disorder, want.Disorder)
		}
	}
}
