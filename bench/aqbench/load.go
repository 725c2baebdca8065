package main

import (
	"fmt"
	"net"
	"time"

	"repro/internal/netstream"
	"repro/internal/stream"
)

// tick is the pacing quantum: every tick the generator owes the server
// rate*tick tuples, sent as one provenance-marked write.
const tick = 2 * time.Millisecond

// feed is one source's pre-generated, pre-encoded input: the paced part
// (warm-up + measured phase) cut into per-tick chunks, the closing
// heartbeat, and the flood tail.
type feed struct {
	src sourceDef
	// tuples is the paced part in arrival order; reference runs and layer
	// replays consume it.
	tuples []stream.Tuple
	// final is the heartbeat sent after the last paced tuple; it closes
	// every window the stream completed.
	final stream.Item
	// wire holds the encoded paced tuples; chunkEnd[i] is the byte offset
	// after tick i's tuples.
	wire     []byte
	chunkEnd []int
	perTick  int
	// closing is the encoded final heartbeat, flood the encoded flood tail.
	closing []byte
	flood   []byte
	floodN  int

	encodeNS float64 // wall ns spent encoding the paced tuples
}

// buildFeed generates and encodes one source's input. pacedSec is warm-up
// plus measured seconds; scale shrinks rates for the smoke test.
func buildFeed(src sourceDef, seed uint64, pacedSec float64, scale float64, withFlood bool) *feed {
	rate := float64(src.rate) * scale
	perTick := int(rate*tick.Seconds() + 0.5)
	if perTick < 1 {
		perTick = 1
	}
	ticks := int(pacedSec/tick.Seconds() + 0.5)
	paced := perTick * ticks
	floodN := 0
	if withFlood {
		floodN = int(float64(src.floodN) * scale)
	}
	f := &feed{src: src, tuples: src.stream(paced, seed).Arrivals(), perTick: perTick, floodN: floodN}

	var maxTS stream.Time
	for _, t := range f.tuples {
		if t.TS > maxTS {
			maxTS = t.TS
		}
	}
	f.final = stream.HeartbeatItem(maxTS)

	f.wire = make([]byte, 0, paced*48) // ~46 bytes a tuple
	f.chunkEnd = make([]int, 0, ticks)
	start := time.Now()
	for i, t := range f.tuples {
		f.wire = netstream.AppendItem(f.wire, stream.DataItem(t))
		if (i+1)%perTick == 0 {
			f.chunkEnd = append(f.chunkEnd, len(f.wire))
		}
	}
	f.encodeNS = float64(time.Since(start).Nanoseconds())
	f.closing = netstream.AppendItem(nil, f.final)
	if floodN > 0 {
		// The flood continues the stream's timeline past the closing
		// heartbeat, so the paced part is the same bytes traced or not.
		tail := src.stream(floodN, seed+1)
		tail.Start = maxTS + stream.Second
		for _, t := range tail.Arrivals() {
			f.flood = netstream.AppendItem(f.flood, stream.DataItem(t))
		}
	}
	return f
}

// replayTicks is how many leading ticks of the feed a layer replay reads.
func (f *feed) replayTicks() int {
	return min(len(f.chunkEnd), (replayMax+f.perTick-1)/f.perTick)
}

// conn is one ingest connection past its hello frame.
type conn struct {
	c       net.Conn
	mark    []byte
	batchID uint64
}

func dialSource(addr, source string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	if _, err := c.Write(netstream.AppendHello(nil, source, "bench")); err != nil {
		c.Close()
		return nil, err
	}
	return &conn{c: c}, nil
}

// sendMarked writes one provenance mark and payload as a single vectored
// write, so the listener sees the mark and its tuples in one segment.
func (cn *conn) sendMarked(sendMS int64, payload []byte) error {
	cn.batchID++
	cn.mark = netstream.AppendBatchMark(cn.mark[:0], stream.BatchProv{BatchID: cn.batchID, SendMS: sendMS})
	bufs := net.Buffers{cn.mark, payload}
	_, err := bufs.WriteTo(cn.c)
	return err
}

// pace streams the feed's chunks on the open-loop schedule start + i*tick
// from the calling goroutine: a late tick is sent immediately and the
// next one is still due on the original schedule. Each mark carries the
// chunk's due time, so server-side wire latency charges generator stalls
// to the tuples that waited. It returns how late each chunk was written.
func (cn *conn) pace(f *feed, start time.Time) ([]time.Duration, error) {
	lags := make([]time.Duration, 0, len(f.chunkEnd))
	off := 0
	for i, end := range f.chunkEnd {
		due := start.Add(time.Duration(i) * tick)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lags = append(lags, time.Since(due))
		if err := cn.sendMarked(due.UnixMilli(), f.wire[off:end]); err != nil {
			return lags, fmt.Errorf("source %s: write at tick %d: %w", f.src.name, i, err)
		}
		off = end
	}
	return lags, nil
}
