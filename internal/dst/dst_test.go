package dst

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/stream"
)

func TestSchedulerAdvancesOnSleep(t *testing.T) {
	s := NewScheduler()
	if err := s.Sleep(context.Background(), 250*time.Millisecond); err != nil {
		t.Fatalf("Sleep: %v", err)
	}
	if got := s.Now().Sub(simEpoch); got != 250*time.Millisecond {
		t.Fatalf("Now = epoch + %v, want epoch + 250ms", got)
	}
}

func TestSchedulerSleepHonorsCancelledContext(t *testing.T) {
	s := NewScheduler()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Sleep(ctx, time.Second); err == nil {
		t.Fatal("Sleep on cancelled context: want error")
	}
	if got := s.Now().Sub(simEpoch); got != 0 {
		t.Fatalf("cancelled Sleep advanced time by %v", got)
	}
}

func TestSchedulerAdvanceToStream(t *testing.T) {
	s := NewScheduler()
	s.AdvanceToStream(3 * stream.Second)
	if got := s.Now().Sub(simEpoch); got != 3*time.Second {
		t.Fatalf("Now = epoch + %v, want epoch + 3s (1 stream unit = 1ms)", got)
	}
	s.AdvanceToStream(stream.Second) // time is monotone: no going back
	if got := s.Now().Sub(simEpoch); got != 3*time.Second {
		t.Fatalf("Now moved backwards to epoch + %v", got)
	}
}

// TestDSTDeterminism is the core replay contract: the same seed must
// yield a byte-identical event transcript and byte-identical engine
// output across two independent executions (run under -race in CI).
func TestDSTDeterminism(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		seed := seed
		t.Run(strconv.FormatUint(seed, 10), func(t *testing.T) {
			t.Parallel()
			p := PlanForSeed(seed)
			a, err := Execute(p)
			if err != nil {
				t.Fatalf("first run: %v", err)
			}
			b, err := Execute(p)
			if err != nil {
				t.Fatalf("second run: %v", err)
			}
			if a.ItemsDigest != b.ItemsDigest {
				t.Errorf("event transcript diverged: %.12s vs %.12s", a.ItemsDigest, b.ItemsDigest)
			}
			if a.OutputDigest != b.OutputDigest {
				t.Errorf("engine output diverged: %.12s vs %.12s", a.OutputDigest, b.OutputDigest)
			}
			if cd := DigestOutput(a.Conc); cd != DigestOutput(b.Conc) {
				t.Errorf("concurrent output diverged across runs")
			}
			if a.TraceDigest == "" || a.TraceDigest != b.TraceDigest {
				t.Errorf("event trace diverged: %.12s vs %.12s", a.TraceDigest, b.TraceDigest)
			}
		})
	}
}

// sweepSeeds returns how many seeds the sweep covers: DST_SEEDS when set,
// a small smoke budget otherwise (kept low so `make check -race` stays
// fast; `make dst` and nightly runs raise it).
func sweepSeeds(t *testing.T) int {
	if s := os.Getenv("DST_SEEDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("DST_SEEDS=%q: want a positive integer", s)
		}
		return n
	}
	if testing.Short() {
		return 4
	}
	return 12
}

// TestDSTSweep executes the seed-derived plan matrix through the full
// differential oracle. A failing seed is shrunk to a minimal plan and
// dumped as a transcript under the test's artifact directory so it can
// be promoted to testdata/ as a regression.
func TestDSTSweep(t *testing.T) {
	n := sweepSeeds(t)
	for seed := 0; seed < n; seed++ {
		seed := uint64(seed)
		t.Run(strconv.FormatUint(seed, 10), func(t *testing.T) {
			t.Parallel()
			p := PlanForSeed(seed)
			o, err := Execute(p)
			if err != nil {
				t.Fatalf("%s: %v", p, err)
			}
			if len(o.Failures) == 0 {
				return
			}
			t.Errorf("%s failed oracle checks: %v", p, o.Failures)
			min := Shrink(p, func(c Plan) bool {
				oc, err := Execute(c)
				return err == nil && len(oc.Failures) > 0
			}, 48)
			oc, err := Execute(min)
			if err != nil || len(oc.Failures) == 0 {
				t.Logf("shrink lost the failure (err=%v); keeping original plan", err)
				min, oc = p, o
			}
			path := filepath.Join(t.TempDir(), "shrunk.json")
			if werr := NewTranscript(oc, "shrunk from sweep seed "+strconv.FormatUint(seed, 10)).Write(path); werr == nil {
				t.Logf("shrunk failing plan written to %s\n%s", path, min)
			}
		})
	}
}

// TestDSTTranscripts replays every committed transcript in testdata/ —
// each one pins a workload digest and output digest for a configuration
// that once exposed a bug.
func TestDSTTranscripts(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed transcripts in testdata/ — the regression net is gone")
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			tr, err := ReadTranscript(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Replay(); err != nil {
				t.Errorf("%s (%s): %v", path, tr.Note, err)
			}
		})
	}
}

// TestTranscriptWithRetiredCoreFieldReplays covers transcripts recorded
// while plans still carried a "core" dimension (the choice between two
// aggregation cores, both proven to emit the same bytes): the field is
// ignored and the pinned digests still hold.
func TestTranscriptWithRetiredCoreFieldReplays(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "release-order-regression.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, core := range []string{"fiba", "legacy"} {
		old := strings.Replace(string(data), `"agg": "count",`, `"agg": "count", "core": "`+core+`",`, 1)
		if old == string(data) {
			t.Fatal("test setup: the transcript's plan no longer has the line the core field is spliced after")
		}
		var tr Transcript
		if err := json.Unmarshal([]byte(old), &tr); err != nil {
			t.Fatal(err)
		}
		if err := tr.Replay(); err != nil {
			t.Errorf("core=%s: %v", core, err)
		}
	}
}

// TestShrinkReducesPlan drives the shrinker with a synthetic predicate:
// any plan with dup faults "fails", so shrinking must strip everything
// else while keeping DupRate.
func TestShrinkReducesPlan(t *testing.T) {
	p := PlanForSeed(3)
	p.Chaos = ChaosPlan{DupRate: 0.01, ErrRate: 0.02, SpikeRate: 0.001, SpikeLen: 16}
	p.NumKeys, p.Batch, p.Heartbeat = 32, 256, stream.Second
	fails := func(c Plan) bool { return c.Chaos.DupRate > 0 }
	min := Shrink(p, fails, 200)
	if min.Chaos.DupRate == 0 {
		t.Fatal("shrink removed the failing dimension")
	}
	if min.Chaos.ErrRate != 0 || min.Chaos.SpikeRate != 0 || min.NumKeys > 1 ||
		min.Batch > 1 || min.Heartbeat != 0 {
		t.Errorf("shrink left reducible dimensions: %s", min)
	}
	if min.N >= p.N {
		t.Errorf("shrink did not reduce workload: n=%d (from %d)", min.N, p.N)
	}
}

// TestTranscriptRoundTrip checks Write/Read symmetry.
func TestTranscriptRoundTrip(t *testing.T) {
	o, err := Execute(PlanForSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTranscript(o, "round-trip")
	path := filepath.Join(t.TempDir(), "t.json")
	if err := tr.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTranscript(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != tr {
		t.Fatalf("round trip changed transcript:\n got %+v\nwant %+v", got, tr)
	}
}

// TestNetReplayPreservesTranscript pins the Plan.Net contract directly:
// a transcript pushed through the netstream wire protocol decodes to the
// byte-identical item sequence, and the shrinker drops the Net dimension
// before anything else.
func TestNetReplayPreservesTranscript(t *testing.T) {
	p := PlanForSeed(11)
	p.Net = true
	items := p.transcript()
	decoded, err := replayNetstream(items)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := DigestItems(decoded), DigestItems(items); got != want {
		t.Fatalf("wire round trip changed the transcript: %s != %s (%d vs %d items)",
			got, want, len(decoded), len(items))
	}

	// Net is the first reduction candidate: a failure that reproduces
	// without the wire keeps shrinking with Net already gone.
	cands := candidates(p)
	if len(cands) == 0 || cands[0].Net {
		t.Fatal("shrinker does not try dropping Net first")
	}
	min := Shrink(p, func(c Plan) bool { return true }, 200)
	if min.Net {
		t.Error("shrink kept the Net dimension against an always-failing predicate")
	}
}

// TestNetReconnectReplayDedup pins the reconnect half of the Net
// contract directly: the transcript framed as provenance-marked batches
// across a connection cut — the redial resending the boundary batch
// with its identical mark — deduplicates by batch id back to the
// byte-identical item sequence.
func TestNetReconnectReplayDedup(t *testing.T) {
	p := PlanForSeed(11)
	items := p.transcript()
	if len(items) < 2*64 {
		t.Fatalf("transcript too short to cross a batch boundary: %d items", len(items))
	}
	deduped, err := replayNetstreamReconnect(items, 64)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := DigestItems(deduped), DigestItems(items); got != want {
		t.Fatalf("reconnect replay changed the transcript: %s != %s (%d vs %d items)",
			got, want, len(deduped), len(items))
	}
	// A degenerate batch size exercises many marks and a mid-stream cut
	// on a short prefix too.
	short, err := replayNetstreamReconnect(items[:10], 3)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := DigestItems(short), DigestItems(items[:10]); got != want {
		t.Fatalf("short reconnect replay diverged: %s != %s", got, want)
	}
}
