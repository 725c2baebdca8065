package netstream

import (
	"bytes"
	"io"
	"runtime"
	"syscall"
	"testing"
	"time"

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

// BenchmarkListenerPaced is what a paced connection costs the whole listener
// process: a child-process client sends aqbench's sensorExp stream,
// tickFrames frames every tickEvery, to a GOMAXPROCS 1 listener whose sink
// counts each batch and hands it straight back. One op is one tick.
// cpu-ns/tick is the process's user + system CPU from getrusage, every
// thread included: the part of a paced server's CPU that no Go frame holds —
// the runtime's sysmon thread and the kernel's wake-ups — is what a CPU
// profile cannot see. The first 250 ticks warm up and are not counted.
func BenchmarkListenerPaced(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const warm = 250
	sink := newCountSink()
	c := sink.conn("s0")
	warmed, done := c.notify(warm*tickFrames), c.notify(int64(warm+b.N)*tickFrames)
	l, err := Listen("127.0.0.1:0", sink.open, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	client := startClient(b, "ticks", l.Addr(), warm+b.N)
	timeout := time.After(10*time.Second + time.Duration(warm+b.N)*2*tickEvery)
	await := func(mark <-chan struct{}) {
		select {
		case <-mark:
		case <-timeout:
			b.Fatalf("%d of %d items published before the timeout", c.items.Load(), (warm+b.N)*tickFrames)
		}
	}
	await(warmed)
	b.ResetTimer()
	cpu0 := processCPU()
	await(done)
	cpu := processCPU() - cpu0
	b.StopTimer()
	if err := client.Wait(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(cpu.Nanoseconds())/float64(b.N), "cpu-ns/tick")
}

// processCPU is the process's user + system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
