package tracez

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Record(Event{Kind: KindEmit})
	if r.Len() != 0 || r.Total() != 0 || r.Events() != nil {
		t.Fatal("nil recorder must be inert")
	}
	var tr *Tracer
	tr.SourceBatch(1, 2)
	tr.Shed(1, 2)
	tr.BufferSync(1, 1, 1, 1, 5, true)
	tr.AdaptDecision(1, 5, 0.1)
	tr.QualitySample(1, 0, 0.1)
	tr.Emit(1, 0, 0, 10, 0, 3, 2)
	tr.Panic(StageWindow, 1, "boom")
	var dumped bool
	tr.OnDump(func(Dump) { dumped = true })
	tr.Dump("x", 1, -1)
	if tr.Recorder() != nil || dumped || tr.Provenances() != nil {
		t.Fatal("nil tracer must be inert")
	}
}

func TestRecorderWrapAround(t *testing.T) {
	r := NewRecorder(8)
	for i := 0; i < 20; i++ {
		r.Record(Event{At: int64(i), Kind: KindInsert, Stage: StageBuffer})
	}
	if r.Total() != 20 {
		t.Fatalf("Total = %d, want 20", r.Total())
	}
	if r.Len() != 8 {
		t.Fatalf("Len = %d, want 8 (ring capacity)", r.Len())
	}
	evs := r.Events()
	if len(evs) != 8 {
		t.Fatalf("Events returned %d, want 8", len(evs))
	}
	// The ring keeps the newest 8 events, oldest first.
	for i, ev := range evs {
		want := int64(12 + i)
		if ev.At != want || ev.Seq != uint64(want) {
			t.Fatalf("evs[%d] = {At:%d Seq:%d}, want At=Seq=%d", i, ev.At, ev.Seq, want)
		}
	}
	last := r.Last(3)
	if len(last) != 3 || last[0].At != 17 || last[2].At != 19 {
		t.Fatalf("Last(3) = %+v, want At 17..19", last)
	}
}

func TestRecorderConcurrentWriters(t *testing.T) {
	// Hammer a small ring from many goroutines; under -race this is the
	// flight recorder's safety proof. Afterwards every retained event must
	// be internally consistent (At encodes the writer and its i).
	r := NewRecorder(64)
	const writers = 8
	const perWriter = 5000
	var wg sync.WaitGroup
	for wtr := 0; wtr < writers; wtr++ {
		wg.Add(1)
		go func(wtr int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				v := int64(wtr*perWriter + i)
				r.Record(Event{At: v, N: v, Kind: KindInsert, Stage: StageBuffer})
			}
		}(wtr)
	}
	// Concurrent readers: snapshots taken while writers hammer the ring
	// must only ever contain whole events.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for snaps := 0; snaps < 50; snaps++ {
			for _, ev := range r.Events() {
				if ev.At != ev.N {
					panic(fmt.Sprintf("torn event: At=%d N=%d", ev.At, ev.N))
				}
			}
		}
	}()
	wg.Wait()
	<-done
	if r.Total() != writers*perWriter {
		t.Fatalf("Total = %d, want %d", r.Total(), writers*perWriter)
	}
	evs := r.Events()
	if len(evs) != 64 {
		t.Fatalf("retained %d events, want 64", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("events not seq-ordered: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
}

// TestRecorderAllocatesChunksOnDemand covers the ring's lazy memory: a
// recorder that has recorded nothing holds no slots, one chunk appears per
// chunkSlots events, writers racing into a fresh chunk (run under -race) lose
// no event, and a ring whose size is not a multiple of the chunk still holds
// exactly size events once it has wrapped.
func TestRecorderAllocatesChunksOnDemand(t *testing.T) {
	const size = 2*chunkSlots + 100
	r := NewRecorder(size)
	allocated := func() (n int) {
		for i := range r.chunks {
			if r.chunks[i].Load() != nil {
				n++
			}
		}
		return n
	}
	if allocated() != 0 || len(r.Events()) != 0 {
		t.Fatalf("an idle recorder holds %d chunks, %d events", allocated(), len(r.Events()))
	}
	r.Record(Event{At: 1})
	if allocated() != 1 {
		t.Fatalf("one event allocated %d chunks, want 1", allocated())
	}

	const writers = 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < (size-1)/writers; i++ {
				r.Record(Event{At: 2})
			}
		}()
	}
	wg.Wait()
	want := 1 + writers*((size-1)/writers)
	if got := len(r.Events()); got != want || r.Len() != want {
		t.Fatalf("%d events retained (Len %d) of %d recorded into a ring of %d", got, r.Len(), want, size)
	}
	for i := 0; i < 2*size; i++ {
		r.Record(Event{At: 3})
	}
	evs := r.Events()
	if len(evs) != size || allocated() != 3 || evs[0].At != 3 {
		t.Fatalf("wrapped ring holds %d events in %d chunks, oldest At=%d; want %d in 3, all from the last pass", len(evs), allocated(), evs[0].At, size)
	}
}

// eventsSortedCopy is Recorder.Events as it was before it read the ring in
// order, kept verbatim as the oracle: copy every slot, then sort by Seq.
func eventsSortedCopy(r *Recorder) []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, r.Len())
	for c := range r.chunks {
		p := r.chunks[c].Load()
		if p == nil {
			continue
		}
		for i := range *p {
			s := &(*p)[i]
			s.mu.Lock()
			if s.set {
				out = append(out, s.ev)
			}
			s.mu.Unlock()
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// TestEventsMatchesSortedCopy holds Events to the implementation it replaced:
// at every fill level of rings of one slot, a partial chunk, a whole chunk and
// several chunks; behind writers that claimed a seq and stalled before writing
// it — their slots still hold the event a lap older, out of ring order, the
// race the sort fallback is for; and with writers running, where every read
// must be whole and seq-ordered, and the ring read the same once they stop.
func TestEventsMatchesSortedCopy(t *testing.T) {
	same := func(r *Recorder, what string) {
		t.Helper()
		if got, want := r.Events(), eventsSortedCopy(r); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Events read %d events, the sorted copy %d, or they differ", what, len(got), len(want))
		}
	}
	for _, size := range []int{1, 7, chunkSlots, 2*chunkSlots + 100} {
		for _, total := range []int{0, 1, size - 1, size, size + 1, 3*size + 5} {
			r := NewRecorder(size)
			for i := 0; i < total; i++ {
				r.Record(Event{At: int64(i), Kind: KindEmit})
			}
			same(r, fmt.Sprintf("ring of %d after %d events", size, total))
			r.next.Add(3)
			same(r, fmt.Sprintf("ring of %d after %d events and 3 stalled writers", size, total))
			r.Record(Event{At: -1, Kind: KindEmit})
			same(r, fmt.Sprintf("ring of %d after %d events, 3 stalled writers and one more event", size, total))
		}
	}

	r := NewRecorder(256)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r.Record(Event{N: i, K: i, Kind: KindInsert})
			}
		}()
	}
	for reads := 0; reads < 200; reads++ {
		evs := r.Events()
		for i, ev := range evs {
			if ev.N != ev.K || i > 0 && ev.Seq <= evs[i-1].Seq {
				close(stop)
				wg.Wait()
				t.Fatalf("read %d under writers: event %d (seq %d, N %d, K %d) torn or out of order", reads, i, ev.Seq, ev.N, ev.K)
			}
		}
	}
	close(stop)
	wg.Wait()
	same(r, "ring after concurrent writers stopped")
}

// BenchmarkRecorderEvents reads a full default-size ring: the copy every
// flight-recorder dump takes.
func BenchmarkRecorderEvents(b *testing.B) {
	r := NewRecorder(DefaultRecorderSize)
	for i := 0; i < DefaultRecorderSize*4/3; i++ {
		r.Record(Event{At: int64(i), Kind: KindEmit})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(r.Events()) != DefaultRecorderSize {
			b.Fatal("ring not full")
		}
	}
}

func TestTracerProvenance(t *testing.T) {
	tr := New(NewRecorder(1024), "q")
	tr.SetTheta(0.01)
	tr.BufferSync(100, 10, 8, 2, 500, true)
	tr.AdaptDecision(100, 500, 0.004)
	tr.Shed(110, 3)
	tr.Emit(120, 7, 0, 100, 0, 42, 20)
	p, ok := tr.ProvenanceFor(7)
	if !ok {
		t.Fatal("provenance for window 7 not found")
	}
	if p.Count != 42 || p.KAtSeal != 500 || p.Stragglers != 2 || p.Shed != 3 ||
		p.EstErr != 0.004 || p.Theta != 0.01 || p.Latency != 20 {
		t.Fatalf("provenance = %+v", p)
	}
	// The next emit's straggler count is a delta since the previous seal.
	tr.BufferSync(130, 5, 5, 1, 500, false)
	tr.Emit(140, 8, 100, 200, 0, 40, 18)
	p8, _ := tr.ProvenanceFor(8)
	if p8.Stragglers != 1 {
		t.Fatalf("window 8 straggler delta = %d, want 1", p8.Stragglers)
	}
}

func TestTracerProvenanceRingBounded(t *testing.T) {
	tr := New(NewRecorder(16), "q")
	for i := 0; i < provCap+50; i++ {
		tr.Emit(int64(i), int64(i), 0, 1, 0, 1, 0)
	}
	ps := tr.Provenances()
	if len(ps) != provCap {
		t.Fatalf("provenance ring holds %d, want %d", len(ps), provCap)
	}
	if ps[0].Win != 50 || ps[len(ps)-1].Win != provCap+49 {
		t.Fatalf("provenance ring range [%d, %d], want [50, %d]",
			ps[0].Win, ps[len(ps)-1].Win, provCap+49)
	}
}

func TestWatchdog(t *testing.T) {
	now := time.Unix(0, 0)
	wd := NewWatchdog(0.01, func() time.Time { return now })
	if s, _ := wd.Observe(1, 0.005); s {
		t.Fatal("below-theta sample must not start a violation")
	}
	started, _ := wd.Observe(2, 0.05)
	if !started || !wd.InViolation() || wd.Violations() != 1 {
		t.Fatalf("violation not entered: started=%v inViolation=%v count=%d",
			started, wd.InViolation(), wd.Violations())
	}
	if s, _ := wd.Observe(3, 0.06); s {
		t.Fatal("an ongoing violation must not re-count")
	}
	now = now.Add(250 * time.Millisecond)
	if got := wd.TimeInViolation(); got != 250*time.Millisecond {
		t.Fatalf("TimeInViolation = %v, want 250ms", got)
	}
	_, endedMs := wd.Observe(4, 0.001)
	if endedMs != 250 {
		t.Fatalf("endedMs = %v, want 250", endedMs)
	}
	if wd.InViolation() {
		t.Fatal("violation must have ended")
	}
	win, errv := wd.LastViolation()
	if win != 3 || errv != 0.06 {
		t.Fatalf("LastViolation = (%d, %g), want (3, 0.06)", win, errv)
	}
	// Second violation accumulates.
	wd.Observe(5, 0.5)
	now = now.Add(100 * time.Millisecond)
	if got := wd.TimeInViolation(); got != 350*time.Millisecond {
		t.Fatalf("cumulative TimeInViolation = %v, want 350ms", got)
	}
}

func TestWatchdogRegister(t *testing.T) {
	reg := obs.NewRegistry()
	wd := NewWatchdog(0.01, nil)
	wd.Register(reg, "q1")
	wd.Observe(1, 0.5)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `aq_quality_violation_total{query="q1"} 1`) {
		t.Fatalf("violation counter missing from exposition:\n%s", out)
	}
	if !strings.Contains(out, "aq_time_in_violation_ms") {
		t.Fatalf("time-in-violation gauge missing from exposition:\n%s", out)
	}
}

func TestTracerViolationDump(t *testing.T) {
	tr := New(NewRecorder(256), "q")
	tr.SetWatchdog(NewWatchdog(0.01, nil))
	var dumps []Dump
	tr.OnDump(func(d Dump) { dumps = append(dumps, d) })
	tr.BufferSync(100, 10, 10, 1, 300, true)
	tr.Emit(110, 5, 0, 100, 0, 9, 10)
	tr.QualitySample(120, 5, 0.2) // above theta: violation + automatic dump
	if len(dumps) != 1 {
		t.Fatalf("got %d dumps, want 1", len(dumps))
	}
	d := dumps[0]
	if d.Reason != "quality-violation" || d.Win != 5 || d.Query != "q" {
		t.Fatalf("dump header = %+v", d)
	}
	if len(d.Provenance) == 0 || d.Provenance[len(d.Provenance)-1].Win != 5 {
		t.Fatalf("dump lacks the violating window's provenance: %+v", d.Provenance)
	}
	var sawViolation bool
	for _, ev := range d.Events {
		if ev.Kind == KindViolation && ev.Win == 5 {
			sawViolation = true
		}
	}
	if !sawViolation {
		t.Fatal("dump events lack the KindViolation entry")
	}
	// Recovery emits a violation-end event but no extra dump.
	tr.QualitySample(130, 6, 0.001)
	if len(dumps) != 1 {
		t.Fatal("violation end must not dump again")
	}
}

func TestDumpSink(t *testing.T) {
	tr := New(NewRecorder(64), "q")
	var got []Dump
	tr.OnDump(func(d Dump) { got = append(got, d) })
	tr.Panic(StageWindow, 50, "boom")
	if len(got) != 1 || got[0].Reason != "panic" {
		t.Fatalf("sink saw %+v", got)
	}
	tr.BreakerTrip(60)
	if len(got) != 2 || got[1].Reason != "breaker-trip" {
		t.Fatalf("sink saw %+v", got)
	}
}

// TestDumpHoldsNewestEvents: a dump off a full default-size ring copies
// only the newest dumpEvents events, and the newest is what triggered it.
func TestDumpHoldsNewestEvents(t *testing.T) {
	rec := NewRecorder(DefaultRecorderSize)
	tr := New(rec, "q")
	tr.SetWatchdog(NewWatchdog(0.01, nil))
	var dumps []Dump
	tr.OnDump(func(d Dump) { dumps = append(dumps, d) })
	for i := 0; i < DefaultRecorderSize+100; i++ {
		tr.BufferSync(int64(i), 1, 1, 0, 100, false)
	}
	if rec.Len() != DefaultRecorderSize {
		t.Fatalf("ring holds %d events, want it full at %d", rec.Len(), DefaultRecorderSize)
	}
	tr.QualitySample(int64(DefaultRecorderSize+100), 7, 0.5)
	if len(dumps) != 1 {
		t.Fatalf("got %d dumps, want 1", len(dumps))
	}
	evs := dumps[0].Events
	if len(evs) == 0 || len(evs) > dumpEvents {
		t.Fatalf("dump holds %d events, want 1..%d", len(evs), dumpEvents)
	}
	if last := evs[len(evs)-1]; last.Kind != KindViolation || last.Win != 7 {
		t.Fatalf("dump ends with %+v, want the KindViolation event", last)
	}
	if want := rec.Total() - 1; evs[len(evs)-1].Seq != want {
		t.Fatalf("dump's newest event has seq %d, want %d", evs[len(evs)-1].Seq, want)
	}
}

// TestLastIsEventsSuffix: Last(n) reads only the newest n slots, and that is
// the tail of Events whether the read wraps the ring, crosses a chunk or not.
func TestLastIsEventsSuffix(t *testing.T) {
	for _, size := range []int{5, chunkSlots + 3, 3 * chunkSlots} {
		r := NewRecorder(size)
		for total := 0; total < 3*size; total += 1 + total/3 {
			for r.Total() < uint64(total) {
				r.Record(Event{At: int64(r.Total()), Kind: KindInsert, Stage: StageBuffer})
			}
			all := r.Events()
			for _, n := range []int{-1, 0, 1, 2, size / 2, size - 1, size, size + 1} {
				want := all
				if n > 0 && n < len(all) {
					want = all[len(all)-n:]
				}
				if got := r.Last(n); !reflect.DeepEqual(got, want) && (len(got) != 0 || len(want) != 0) {
					t.Fatalf("size %d, %d recorded: Last(%d) = %d events, want the %d newest", size, total, n, len(got), len(want))
				}
			}
		}
	}
}

func TestChromeTrace(t *testing.T) {
	tr := New(NewRecorder(256), "demo")
	tr.SourceBatch(10, 64)
	tr.BufferSync(10, 64, 60, 1, 200, true)
	tr.AdaptDecision(20, 250, 0.003)
	tr.Emit(30, 1, 0, 10, 0, 60, 20)
	tr.QualitySample(40, 1, 0.2)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, "demo", tr.Recorder().Events(), map[string]any{"x": 1}); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if out.Unit != "ms" {
		t.Fatalf("displayTimeUnit = %q", out.Unit)
	}
	var names, phases []string
	for _, ev := range out.TraceEvents {
		names = append(names, fmt.Sprint(ev["name"]))
		phases = append(phases, fmt.Sprint(ev["ph"]))
		if args, ok := ev["args"].(map[string]any); ok {
			if n, ok := args["name"]; ok { // thread/process metadata names
				names = append(names, fmt.Sprint(n))
			}
		}
	}
	all := strings.Join(names, ",")
	for _, want := range []string{"process_name", "source", "buffer", "controller", "window", "win#1", "K"} {
		if !strings.Contains(all, want) {
			t.Fatalf("export lacks %q:\n%s", want, all)
		}
	}
	if !strings.Contains(strings.Join(phases, ","), "X") {
		t.Fatal("emit must render as a complete (X) span")
	}
	// The emit span's duration is its latency in microseconds.
	for _, ev := range out.TraceEvents {
		if ev["name"] == "win#1" {
			if dur := ev["dur"].(float64); dur != 20000 {
				t.Fatalf("emit span dur = %v µs, want 20000", dur)
			}
		}
	}
}

func TestDigestStableAndSensitive(t *testing.T) {
	mk := func(v float64) []Event {
		return []Event{
			{Seq: 0, At: 1, Kind: KindInsert, Stage: StageBuffer, N: 3},
			{Seq: 1, At: 2, Kind: KindEmit, Stage: StageWindow, Win: 1, N: 5, K: 100, V: v, Msg: "m"},
		}
	}
	a, b := Digest(mk(1.5)), Digest(mk(1.5))
	if a != b || a == "" {
		t.Fatalf("digest not stable: %q vs %q", a, b)
	}
	if c := Digest(mk(1.25)); c == a {
		t.Fatal("digest not sensitive to event payloads")
	}
	if d := Digest(nil); d == a || d == "" {
		t.Fatal("empty digest must differ and be non-empty")
	}
}

func TestLogHandlerMirrors(t *testing.T) {
	rec := NewRecorder(64)
	var buf bytes.Buffer
	base := slog.NewTextHandler(&buf, &slog.HandlerOptions{})
	lg := slog.New(NewLogHandler(base, rec)).With("query", "q1").WithGroup("g")
	lg.Info("segment done", "n", 7)
	evs := rec.Events()
	if len(evs) != 1 || evs[0].Kind != KindLog {
		t.Fatalf("recorder saw %+v, want one log event", evs)
	}
	if evs[0].Msg != "INFO segment done" {
		t.Fatalf("mirrored msg = %q", evs[0].Msg)
	}
	if !strings.Contains(buf.String(), "segment done") || !strings.Contains(buf.String(), "query=q1") {
		t.Fatalf("inner handler output = %q", buf.String())
	}
}
