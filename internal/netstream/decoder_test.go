package netstream

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/stream"
)

func TestDecoderReadAll(t *testing.T) {
	items := []stream.Item{
		stream.DataItem(stream.Tuple{TS: 1, Arrival: 2, Seq: 0, Value: 10}),
		stream.HeartbeatItem(5),
		stream.DataItem(stream.Tuple{TS: 3, Arrival: 4, Seq: 1, Key: 2, Value: -1.5}),
	}
	buf := AppendHello(nil, "s1", "t1")
	buf = append(buf, "# interleaved comment\n\n"...)
	for _, it := range items {
		buf = AppendItem(buf, it)
	}
	d := NewDecoder(strings.NewReader(string(buf)))
	got, err := d.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if d.Source() != "s1" || d.Tenant() != "t1" {
		t.Fatalf("hello: source=%q tenant=%q", d.Source(), d.Tenant())
	}
	if len(got) != len(items) {
		t.Fatalf("got %d items, want %d", len(got), len(items))
	}
	for i := range items {
		if got[i] != items[i] {
			t.Fatalf("item %d: got %+v want %+v", i, got[i], items[i])
		}
	}
}

func TestDecoderRequiresHelloFirst(t *testing.T) {
	d := NewDecoder(strings.NewReader("D 1 2 3 4 5 6\n"))
	if _, _, err := d.Next(); err == nil {
		t.Fatal("want error for data frame before hello")
	}
}

func TestDecoderRejectsDuplicateHello(t *testing.T) {
	d := NewDecoder(strings.NewReader("S a\nS b\n"))
	if _, _, err := d.Next(); err == nil {
		t.Fatal("want error for duplicate hello")
	}
}

func TestDecoderCleanEOFBeforeHello(t *testing.T) {
	d := NewDecoder(strings.NewReader("# only comments\n"))
	if err := d.Hello(); err == nil {
		t.Fatal("want error for EOF before hello")
	}
}

func TestDecoderFinalLineWithoutNewline(t *testing.T) {
	d := NewDecoder(strings.NewReader("S a\nH 7"))
	got, err := d.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Watermark != 7 {
		t.Fatalf("got %+v", got)
	}
}

func TestDecoderOverlongLine(t *testing.T) {
	d := NewDecoder(strings.NewReader("S a\nD " + strings.Repeat("9", 2*MaxLine) + "\n"))
	if _, err := d.ReadAll(); err == nil {
		t.Fatal("want error for over-long line")
	}
}

// A line that never ends is refused as soon as it cannot fit MaxLine, not
// after the peer has filled the read buffer.
func TestDecoderOverlongLineWithoutNewline(t *testing.T) {
	r := io.MultiReader(strings.NewReader("S a\nH 1\nD "), neverEnding('7'))
	d := NewDecoder(r)
	if err := d.Hello(); err != nil {
		t.Fatal(err)
	}
	got, err := d.Decode(nil, ConnBatch)
	if err == nil && len(got) == 1 {
		got, err = d.Decode(got, ConnBatch)
	}
	if err == nil || len(got) != 1 || got[0].Watermark != 1 {
		t.Fatalf("got %d items, err %v; want the heartbeat and a line-length error", len(got), err)
	}
}

// neverEnding reads as an endless run of one byte, a few at a time.
type neverEnding byte

func (b neverEnding) Read(p []byte) (int, error) {
	n := min(len(p), 100)
	for i := range p[:n] {
		p[i] = byte(b)
	}
	return n, nil
}

func TestDecoderTracksBatchMarks(t *testing.T) {
	var buf []byte
	buf = AppendHello(buf, "s1", "")
	buf = AppendItem(buf, stream.HeartbeatItem(1)) // before any mark: zero prov
	buf = AppendBatchMark(buf, stream.BatchProv{BatchID: 1, SendMS: 100})
	buf = AppendItem(buf, stream.DataItem(stream.Tuple{TS: 1, Arrival: 1, Seq: 1, Value: 1}))
	buf = AppendItem(buf, stream.DataItem(stream.Tuple{TS: 2, Arrival: 2, Seq: 2, Value: 2}))
	buf = AppendBatchMark(buf, stream.BatchProv{BatchID: 2, SendMS: 250})
	buf = AppendItem(buf, stream.DataItem(stream.Tuple{TS: 3, Arrival: 3, Seq: 3, Value: 3}))

	d := NewDecoder(bytes.NewReader(buf))
	var provs []stream.BatchProv
	for {
		_, ok, err := d.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		provs = append(provs, d.Prov())
	}
	want := []stream.BatchProv{
		{},
		{BatchID: 1, SendMS: 100},
		{BatchID: 1, SendMS: 100},
		{BatchID: 2, SendMS: 250},
	}
	if len(provs) != len(want) {
		t.Fatalf("got %d items, want %d", len(provs), len(want))
	}
	for i := range want {
		if provs[i] != want[i] {
			t.Fatalf("item %d prov = %+v, want %+v", i, provs[i], want[i])
		}
	}
	if !provs[1].Valid() || provs[0].Valid() {
		t.Fatal("Valid() wrong on zero/non-zero prov")
	}
}

func TestDecoderRejectsBatchMarkBeforeHello(t *testing.T) {
	buf := AppendBatchMark(nil, stream.BatchProv{BatchID: 1, SendMS: 5})
	d := NewDecoder(bytes.NewReader(buf))
	if err := d.Hello(); err == nil {
		t.Fatal("batch mark before hello should be a protocol error")
	}
}
