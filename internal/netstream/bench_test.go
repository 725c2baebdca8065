package netstream

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/delay"
	"repro/internal/gen"
	"repro/internal/stream"
)

// sensorExpWire encodes aqbench's sensorExp stream (gen.Sensor with
// exponential delays of mean 100 ms, in arrival order) as one
// connection's bytes: a hello, then one data frame per tuple.
func sensorExpWire(n int, seed uint64) []byte {
	c := gen.Sensor(n, seed)
	c.Delays = delay.Exponential{MeanD: 100}
	wire := AppendHello(nil, "s0", "bench")
	for _, t := range c.Arrivals() {
		wire = AppendItem(wire, stream.DataItem(t))
	}
	return wire
}

// BenchmarkDecodeServerShaped decodes what a fixedk_wire connection carries
// the way the listener does: Decoder.Decode into 256-item batches, the
// decoder filling its 64 KiB buffer from a reader that hands over as much
// as it asks for. One op is one tuple, so allocs/op is per tuple; the
// stream is decoded again from the top as often as b.N needs.
func BenchmarkDecodeServerShaped(b *testing.B) {
	wire := sensorExpWire(200_000, 1)
	batch := make([]stream.Item, 0, ConnBatch)
	var r bytes.Reader
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; {
		r.Reset(wire)
		d := NewDecoder(&r)
		if err := d.Hello(); err != nil {
			b.Fatal(err)
		}
		for n < b.N {
			var err error
			batch, err = d.Decode(batch[:0], ConnBatch)
			n += len(batch)
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/tuple")
}
