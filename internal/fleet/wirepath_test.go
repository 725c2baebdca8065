package fleet

import (
	"bytes"
	"context"
	"io"
	"reflect"
	"testing"
	"time"

	"repro/internal/netstream"
	"repro/internal/stream"
)

// A Source is what a netstream.Listener feeds once Registry.Open has
// resolved the connection's hello.
var _ netstream.Sink = (*Source)(nil)

// loopReader replays one chunk of wire bytes for ever.
type loopReader struct {
	wire []byte
	off  int
}

func (r *loopReader) Read(p []byte) (int, error) {
	n := copy(p, r.wire[r.off:])
	r.off = (r.off + n) % len(r.wire)
	return n, nil
}

// TestWirePathAllocatesNothingPerTuple drives the listener's loop — wire
// bytes decoded straight into a batch borrowed from the source, handed over
// owned, read by a subscriber and released — and holds it to zero
// allocations per tuple in steady state: what is left is the ring's one
// batch header per publish.
func TestWirePathAllocatesNothingPerTuple(t *testing.T) {
	const batch = 256
	wire := netstream.AppendBatchMark(nil, stream.BatchProv{BatchID: 1, SendMS: 1754640000000})
	for _, it := range dataItems(0, batch) {
		it.Tuple.Value += 0.123456789
		wire = netstream.AppendItem(wire, it)
	}
	r := NewRegistry(Options{})
	defer r.Close()
	src, err := r.Open("s1")
	if err != nil {
		t.Fatal(err)
	}
	sub := src.Attach("q1")
	hello := bytes.NewReader(netstream.AppendHello(nil, "s1", ""))
	d := netstream.NewDecoder(io.MultiReader(hello, &loopReader{wire: wire}))
	if err := d.Hello(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cycle := func() {
		items, err := d.Decode(src.Get(), batch)
		if err != nil || len(items) != batch {
			t.Fatalf("decode: %d items, err %v", len(items), err)
		}
		if err := src.PublishOwned(items, d.Prov()); err != nil {
			t.Fatal(err)
		}
		got, seq, prov, ok, err := sub.NextBatchProv(ctx)
		if err != nil || !ok || len(got) != len(items) || !prov.Valid() {
			t.Fatalf("next: %d items, prov %+v, ok %v, err %v", len(got), prov, ok, err)
		}
		sub.Release(seq)
	}
	// Grow and circulate the pooled slices, and lap the ring so the measured
	// publishes overwrite and recycle a slot, as every production publish
	// after the ring's first lap does.
	for i := 0; i < sourceRing+32; i++ {
		cycle()
	}
	perCycle := testing.AllocsPerRun(200, cycle)
	if perTuple := perCycle / batch; perTuple > 0.02 {
		t.Fatalf("%.1f allocations per cycle, %.4f per tuple; want 0 per tuple (a batch header per publish at most)", perCycle, perTuple)
	}
}

// TestOwnedPublishCompactsInPlace holds the rate limiter's in-place
// compaction to what the copying loop it replaced admitted: items in
// arrival order up to the bucket, every heartbeat wherever it stood, the
// over-rate tail shed and counted — read back item for item.
func TestOwnedPublishCompactsInPlace(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	r := NewRegistry(Options{MaxIngestPerSec: 100, Clock: clk})
	src := r.Source("s1")
	sub := src.Attach("q1")

	// A full bucket holds 100: the 60 ahead of the heartbeat pass, it
	// passes, 40 of the 60 behind it pass. Then, bucket empty, only the
	// heartbeat of the second batch does.
	first := append(append(dataItems(0, 60), stream.HeartbeatItem(7)), dataItems(60, 60)...)
	second := append(append(dataItems(200, 10), stream.HeartbeatItem(8)), dataItems(210, 10)...)
	want := append(append([]stream.Item{}, first[:101]...), second[10])
	for _, batch := range [][]stream.Item{first, second} {
		if err := src.PublishOwned(append(src.Get(), batch...), stream.BatchProv{}); err != nil {
			t.Fatal(err)
		}
	}
	if src.RateShed() != 40 || src.Tuples() != 100 {
		t.Fatalf("shed %d, admitted %d; want 40 and 100", src.RateShed(), src.Tuples())
	}
	r.Close()
	var got []stream.Item
	for {
		items, seq, ok, err := sub.NextBatch(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, items...)
		sub.Release(seq)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("consumer saw %d items, want the %d admitted ones in order", len(got), len(want))
	}
}
