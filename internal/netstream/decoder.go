package netstream

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"repro/internal/stream"
)

// ConnBatch bounds how many decoded items one Decode call (and so one
// sink publish) carries. A sink that lends the listener its batches sizes
// them to it, so Decode never regrows one.
const ConnBatch = 256

// readBuf sizes the decoder's read buffer: one read holds several full
// ConnBatches of typical data frames (40-60 bytes each), so a fast client's
// write is rarely cut into partial batches, and many maximal lines.
const readBuf = 64 << 10

// Decoder turns a byte stream of protocol lines back into stream items.
// It is strict: a malformed line is an error, not a skip — silently
// dropping frames would corrupt the byte-equivalence contract the DST
// wire-replay dimension (and the integration oracle) enforce.
type Decoder struct {
	r      io.Reader
	buf    []byte
	lo, hi int   // buf[lo:hi] is read but not yet decoded
	rerr   error // sticky read error, surfaced once buf holds no complete line
	one    [1]stream.Item

	source string
	tenant string
	hello  bool
	prov   stream.BatchProv // current batch mark; zero until one arrives
}

// NewDecoder wraps r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: r, buf: make([]byte, readBuf)}
}

// Source returns the stream name announced by the hello frame ("" before
// Hello succeeded).
func (d *Decoder) Source() string { return d.source }

// Tenant returns the tenant announced by the hello frame (may be "").
func (d *Decoder) Tenant() string { return d.tenant }

// Prov returns the wire provenance currently in effect: the most recent
// batch mark, or the zero BatchProv (Valid() == false) when the
// producer is a v1 client that never sends marks.
func (d *Decoder) Prov() stream.BatchProv { return d.prov }

// line returns the next line, without its newline, and the number of
// buffered bytes it spans: the caller consumes it by advancing d.lo. With
// wait it blocks for input; without, n == 0 says no complete line is
// buffered yet. At the end of input the unterminated rest is the final
// line. A line that cannot complete within MaxLine is a protocol error
// here, before more of it is read.
func (d *Decoder) line(wait bool) (line []byte, n int, err error) {
	for {
		rest := d.buf[d.lo:d.hi]
		if nl := bytes.IndexByte(rest, '\n'); nl >= 0 {
			return rest[:nl], nl + 1, nil
		}
		switch {
		case len(rest) > MaxLine+1: // +1: a tolerated trailing '\r'
			return nil, 0, errLineTooLong
		case d.rerr == io.EOF && len(rest) > 0:
			return rest, len(rest), nil
		case d.rerr != nil:
			return nil, 0, d.rerr
		case !wait:
			return nil, 0, nil
		}
		d.fill()
	}
}

// fill blocks for more input behind the undecoded rest.
func (d *Decoder) fill() {
	if d.lo > 0 {
		d.hi = copy(d.buf, d.buf[d.lo:d.hi])
		d.lo = 0
	}
	n, err := d.r.Read(d.buf[d.hi:])
	d.hi += n
	if errors.Is(err, io.EOF) {
		err = io.EOF // line compares
	}
	d.rerr = err
}

// Decode appends the items of the next frames to dst (a data or heartbeat
// frame is parsed straight into its slot) until dst holds max items, a
// batch mark would change the provenance of the items already appended —
// so Prov covers all of them — or the input already read holds no further
// complete frame. It blocks for input only while it has appended nothing,
// so a caller that publishes what it gets back never sits on decoded
// items. The error is io.EOF after a clean end of stream; items decoded
// ahead of any error are still returned. The hello must have been read.
func (d *Decoder) Decode(dst []stream.Item, max int) ([]stream.Item, error) {
	base := len(dst)
	for len(dst)-base < max {
		line, n, err := d.line(len(dst) == base)
		if err != nil {
			return dst, err
		}
		if n == 0 || (len(dst) > base && len(line) > 0 && line[0] == 'B') {
			break // a mark is left unread: it opens the next batch
		}
		d.lo += n
		dst = append(dst, stream.Item{})
		kind, _, _, err := parseFrame(line, &dst[len(dst)-1], &d.prov)
		if kind != FrameData && kind != FrameHeartbeat {
			dst = dst[:len(dst)-1]
		}
		switch {
		case err != nil:
			return dst, err
		case kind == FrameHello:
			return dst, fmt.Errorf("netstream: duplicate hello mid-stream")
		}
	}
	return dst, nil
}

// Hello consumes frames until the connection preamble arrives and records
// the announced source and tenant. A data or heartbeat frame before the
// hello is a protocol error.
func (d *Decoder) Hello() error {
	for !d.hello {
		line, n, err := d.line(true)
		if err == io.EOF {
			return fmt.Errorf("netstream: connection ended before hello")
		}
		if err != nil {
			return err
		}
		d.lo += n
		kind, source, tenant, err := parseFrame(line, &d.one[0], &d.prov)
		switch {
		case err != nil:
			return err
		case kind == FrameHello:
			d.source, d.tenant, d.hello = source, tenant, true
		case kind != FrameNone:
			return fmt.Errorf("netstream: frame before hello")
		}
	}
	return nil
}

// Next returns the next decoded item. ok=false means the stream ended
// cleanly. A repeated hello frame mid-stream is a protocol error.
func (d *Decoder) Next() (stream.Item, bool, error) {
	if err := d.Hello(); err != nil {
		return stream.Item{}, false, err
	}
	one, err := d.Decode(d.one[:0], 1)
	if len(one) == 1 {
		return one[0], true, nil
	}
	if err == io.EOF {
		err = nil
	}
	return stream.Item{}, false, err
}

// ReadAll drains the decoder into a slice: hello, then every item until
// clean EOF. It is the DST wire-replay entry point.
func (d *Decoder) ReadAll() ([]stream.Item, error) {
	if err := d.Hello(); err != nil {
		return nil, err
	}
	var items []stream.Item
	for {
		var err error
		items, err = d.Decode(items, ConnBatch)
		if err == io.EOF {
			return items, nil
		}
		if err != nil {
			return nil, err
		}
	}
}
