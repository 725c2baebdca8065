package netstream

import (
	"errors"
	"io"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/stream"
)

// Sink is one connection's handle on the source its hello named: the
// listener resolves it once per connection and then only moves batches.
// fleet.Source implements it: each named source owns a broadcast ring
// and a tenant rate quota.
type Sink interface {
	// Get lends an empty batch for the listener to decode into.
	Get() []stream.Item
	// PublishOwned takes over one in-order batch that came from Get: the
	// sink owns the slice from here on and may edit it in place. prov
	// carries the wire provenance in effect for every item of the batch
	// (the zero value for v1 producers); the listener never mixes items
	// under different marks in one batch. A returned error terminates
	// the connection (the client's retry policy decides whether to
	// reconnect).
	PublishOwned(items []stream.Item, prov stream.BatchProv) error
}

// Listener accepts TCP line-protocol connections and feeds decoded items
// into the sink its hello opens. Many connections may feed the same
// source (sequentially — e.g. a reconnecting client — or concurrently;
// the sink serializes). A decode error closes the offending connection
// and touches nothing else.
type Listener struct {
	l    net.Listener
	open func(source, tenant string) (Sink, error)
	log  *slog.Logger

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	wg       sync.WaitGroup
	accepted atomic.Int64 // connections whose hello opened a sink
	rejected atomic.Int64 // connections dropped on protocol/sink errors
}

// Listen binds addr (e.g. ":9070", "127.0.0.1:0") and starts accepting.
// open resolves a connection's hello to the sink it feeds; an error
// rejects the connection. A nil logger defaults to slog.Default.
func Listen(addr string, open func(source, tenant string) (Sink, error), log *slog.Logger) (*Listener, error) {
	if log == nil {
		log = slog.Default()
	}
	nl, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	l := &Listener{l: nl, open: open, log: log, conns: make(map[net.Conn]struct{})}
	l.wg.Add(1)
	go l.acceptLoop()
	return l, nil
}

// Addr returns the bound address (useful with ":0").
func (l *Listener) Addr() net.Addr { return l.l.Addr() }

// Accepted returns how many connections completed the hello: their hello
// opened a sink.
func (l *Listener) Accepted() int64 { return l.accepted.Load() }

// Rejected returns how many connections ended on a protocol or sink
// error (clean client disconnects and connections Close ended are not
// counted).
func (l *Listener) Rejected() int64 { return l.rejected.Load() }

// Close stops accepting, closes every live connection and waits for the
// connection handlers to drain. Idempotent.
func (l *Listener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		l.wg.Wait()
		return nil
	}
	l.closed = true
	for c := range l.conns {
		c.Close()
	}
	l.mu.Unlock()
	err := l.l.Close()
	l.wg.Wait()
	return err
}

// track registers a live connection; returns false when the listener is
// already closing (the caller must drop the conn).
func (l *Listener) track(c net.Conn) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false
	}
	l.conns[c] = struct{}{}
	return true
}

func (l *Listener) untrack(c net.Conn) {
	l.mu.Lock()
	delete(l.conns, c)
	l.mu.Unlock()
}

func (l *Listener) acceptLoop() {
	defer l.wg.Done()
	for {
		c, err := l.l.Accept()
		if err != nil {
			return // listener closed
		}
		if !l.track(c) {
			c.Close()
			return
		}
		l.wg.Add(1)
		go l.serve(c)
	}
}

// serve drains one connection: hello, then every complete frame already
// read is decoded straight into a batch borrowed from the sink and handed
// over before the next blocking read, so one TCP segment's worth of
// frames becomes one publish (ConnBatch at most) and a trickling client
// still sees per-frame latency. The decoder reads c through connReader.
func (l *Listener) serve(c net.Conn) {
	defer l.wg.Done()
	defer l.untrack(c)
	defer c.Close()
	reject := func(msg string, err error, attrs ...any) {
		if errors.Is(err, net.ErrClosed) {
			return // Close ended the connection: a drain, not a rejection
		}
		l.rejected.Add(1)
		l.log.Warn(msg, append(attrs, "remote", c.RemoteAddr().String(), "err", err)...)
	}
	d := NewDecoder(connReader(c))
	if err := d.Hello(); err != nil {
		reject("netstream: rejecting connection", err)
		return
	}
	source := d.Source()
	sink, err := l.open(source, d.Tenant())
	if err != nil {
		reject("netstream: rejecting connection", err, "source", source)
		return
	}
	l.accepted.Add(1)
	batch := sink.Get()
	for {
		batch, err = d.Decode(batch[:0], ConnBatch)
		if len(batch) > 0 {
			if perr := sink.PublishOwned(batch, d.Prov()); perr != nil {
				reject("netstream: sink rejected batch; closing connection", perr, "source", source)
				return
			}
			batch = sink.Get()
		}
		if err != nil {
			if err != io.EOF {
				reject("netstream: closing connection", err, "source", source)
			}
			return
		}
	}
}
