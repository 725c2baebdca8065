package netstream

import (
	"context"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/resilience"
	"repro/internal/stream"
)

// Client is a reconnecting line-protocol producer: it dials Addr, sends
// the hello frame, and streams item frames. A failed dial or write tears
// the connection down and the next Send re-dials under the resilience
// retry policy (backoff + attempt budget), replays the hello and resends
// the whole batch — the same semantics resilience.RetryingSource gives
// the server-side ingest loops, applied to the producer edge. Item
// frames of a batch are only visible to the server after the batch's
// write fully succeeded on one connection, so a mid-batch reconnect can
// duplicate a prefix only if the kernel flushed it; callers who need
// exactly-once must dedupe on Seq downstream.
//
// A Client is not safe for concurrent use; one producer goroutine owns it.
type Client struct {
	// Addr is the listener's TCP address.
	Addr string
	// Source names the stream every frame feeds (hello frame). Required.
	Source string
	// Tenant optionally names the tenant owning the source.
	Tenant string
	// Retry shapes the redial policy. The zero value uses the resilience
	// defaults (5 attempts, exponential backoff).
	Retry resilience.Retry
	// Dial overrides the dialer (tests); nil uses net.Dial("tcp", Addr).
	Dial func() (net.Conn, error)
	// Provenance stamps each Send with a batch mark (`B <id> <sendms>`)
	// so the server can measure true client-send→emission latency and
	// attribute replay spans. Off by default: v1 servers reject the
	// unknown frame.
	Provenance bool
	// NowMS supplies the batch mark's send timestamp in Unix ms; nil
	// uses time.Now. Tests inject fixed clocks.
	NowMS func() int64

	conn     net.Conn
	buf      []byte
	batchID  uint64
	redials  atomic.Int64
	itemsOut atomic.Int64
}

// Redials reports how many reconnect attempts the client has spent.
func (c *Client) Redials() int64 { return c.redials.Load() }

// ItemsSent reports how many item frames were written on intact
// connections.
func (c *Client) ItemsSent() int64 { return c.itemsOut.Load() }

func (c *Client) dial() (net.Conn, error) {
	if c.Dial != nil {
		return c.Dial()
	}
	return net.Dial("tcp", c.Addr)
}

// connect establishes a connection and sends the hello frame.
func (c *Client) connect() error {
	conn, err := c.dial()
	if err != nil {
		return err
	}
	if _, err := conn.Write(AppendHello(nil, c.Source, c.Tenant)); err != nil {
		conn.Close()
		return err
	}
	c.conn = conn
	return nil
}

// Send writes one batch of items, redialing under the retry policy when
// the connection is down or the write fails. On success every item frame
// reached the kernel on a single connection, preceded by a hello. With
// Provenance on, the batch is prefixed by a mark carrying a fresh batch
// id and the send time; the buffer is built once, so a redial resends
// the identical mark — the duplicated id is the server's replay signal.
func (c *Client) Send(ctx context.Context, items []stream.Item) error {
	c.buf = c.buf[:0]
	if c.Provenance {
		c.batchID++
		now := c.NowMS
		if now == nil {
			now = func() int64 { return time.Now().UnixMilli() }
		}
		c.buf = AppendBatchMark(c.buf, stream.BatchProv{BatchID: c.batchID, SendMS: now()})
	}
	for _, it := range items {
		c.buf = AppendItem(c.buf, it)
	}
	first := true
	err := c.Retry.Do(ctx, func() error {
		if !first {
			c.redials.Add(1)
		}
		first = false
		if c.conn == nil {
			if err := c.connect(); err != nil {
				return err
			}
		}
		if _, err := c.conn.Write(c.buf); err != nil {
			c.conn.Close()
			c.conn = nil
			return err
		}
		return nil
	})
	if err == nil {
		c.itemsOut.Add(int64(len(items)))
	}
	return err
}

// Close shuts the connection down (if one is up). The client can be
// reused: the next Send re-dials.
func (c *Client) Close() error {
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}
