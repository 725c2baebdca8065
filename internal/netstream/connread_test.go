package netstream

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/stream"
)

// Child-process clients. A test of how the listener shares its one P cannot
// run its client in process — the client would need that P too — so
// TestMain runs the test binary as a client when clientRoleEnv names a
// role, and startClient re-executes it that way.
const (
	clientRoleEnv = "NETSTREAM_TEST_CLIENT" // flood, paced or ticks
	clientAddrEnv = "NETSTREAM_TEST_ADDR"
	clientArgEnv  = "NETSTREAM_TEST_ARG" // the role's count, see runClient

	pacedEvery = 10 * time.Millisecond // a paced client's frame interval
	tickEvery  = 2 * time.Millisecond  // a ticks client's interval, aqbench's tick
	tickFrames = 100                   // frames per tick
)

func TestMain(m *testing.M) {
	if role := os.Getenv(clientRoleEnv); role != "" {
		if err := runClient(role, os.Getenv(clientAddrEnv), os.Getenv(clientArgEnv)); err != nil {
			fmt.Fprintln(os.Stderr, "netstream test client:", role, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runClient is one child-process client, on a connection to addr:
//   - flood: source "flood", writes frames as fast as the listener reads
//     them for n milliseconds;
//   - paced: source "paced", n data frames, one every pacedEvery, each
//     carrying its send time in µs since the epoch as its value;
//   - ticks: source "s0", n ticks of aqbench's sensorExp stream,
//     tickFrames frames written at once every tickEvery.
func runClient(role, addr, arg string) error {
	n, err := strconv.Atoi(arg)
	if err != nil {
		return err
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	write := func(b []byte) {
		if err == nil {
			_, err = conn.Write(b)
		}
	}
	switch role {
	case "flood":
		write(AppendHello(nil, "flood", ""))
		var chunk []byte
		for _, it := range testItems(20_000) {
			chunk = AppendItem(chunk, it)
		}
		for end := time.Now().Add(time.Duration(n) * time.Millisecond); err == nil && time.Now().Before(end); {
			write(chunk)
		}
	case "paced":
		write(AppendHello(nil, "paced", ""))
		start := time.Now()
		var frame []byte
		for i := 0; i < n && err == nil; i++ {
			time.Sleep(time.Until(start.Add(time.Duration(i) * pacedEvery)))
			t := stream.Tuple{Seq: uint64(i), Value: float64(time.Now().UnixMicro())}
			frame = AppendItem(frame[:0], stream.DataItem(t))
			write(frame)
		}
	case "ticks":
		wire := sensorExpWire(n*tickFrames, 1)
		hello := bytes.IndexByte(wire, '\n') + 1
		write(wire[:hello])
		wire = wire[hello:]
		start := time.Now()
		for i := 0; len(wire) > 0 && err == nil; i++ {
			end := 0
			for range tickFrames {
				end += bytes.IndexByte(wire[end:], '\n') + 1
			}
			time.Sleep(time.Until(start.Add(time.Duration(i) * tickEvery)))
			write(wire[:end])
			wire = wire[end:]
		}
	default:
		return fmt.Errorf("unknown role")
	}
	return err
}

// startClient starts a child-process client of the listener at addr.
func startClient(tb testing.TB, role string, addr net.Addr, n int) *exec.Cmd {
	tb.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), clientRoleEnv+"="+role, clientAddrEnv+"="+addr.String(), clientArgEnv+"="+strconv.Itoa(n))
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		tb.Fatal(err)
	}
	return cmd
}

// countSink is a Sink that allocates nothing per batch: each connection
// publishes into one batch it gets back, and is counted. The "paced"
// source also records each item's delay from the send time its value
// carries.
type countSink struct {
	mu    sync.Mutex
	conns map[string]*countConn
}

func newCountSink() *countSink { return &countSink{conns: make(map[string]*countConn)} }

// conn returns the source's connection handle, made on first use so a
// test can set its marks before the client connects.
func (s *countSink) conn(source string) *countConn {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.conns[source]
	if c == nil {
		c = &countConn{batch: make([]stream.Item, 0, ConnBatch), timed: source == "paced"}
		s.conns[source] = c
	}
	return c
}

func (s *countSink) open(source, _ string) (Sink, error) { return s.conn(source), nil }

type countConn struct {
	batch []stream.Item
	timed bool
	items atomic.Int64
	marks []countMark // set before the connection opens

	mu     sync.Mutex
	delays []time.Duration
}

type countMark struct {
	n    int64
	done chan struct{}
}

// notify returns a channel closed once n items have been published.
func (c *countConn) notify(n int64) <-chan struct{} {
	m := countMark{n, make(chan struct{})}
	c.marks = append(c.marks, m)
	return m.done
}

func (c *countConn) Get() []stream.Item { return c.batch[:0] }

func (c *countConn) PublishOwned(items []stream.Item, _ stream.BatchProv) error {
	if c.timed {
		now := time.Now().UnixMicro()
		c.mu.Lock()
		for _, it := range items {
			c.delays = append(c.delays, time.Duration(now-int64(it.Tuple.Value))*time.Microsecond)
		}
		c.mu.Unlock()
	}
	n := c.items.Add(int64(len(items)))
	for _, m := range c.marks {
		if n >= m.n && n-int64(len(items)) < m.n {
			close(m.done)
		}
	}
	c.batch = items
	return nil
}

// TestListenerFallbackKeepsPacedConnectionsLive: a flooding connection must
// not starve a paced one on a GOMAXPROCS 1 listener. A raw read never wakes
// sysmon, so a flood read only by raw reads would hold the one P with
// nothing to preempt it or to poll the network for the paced connection;
// the fallback to net.Conn.Read after a read that fills its buffer is what
// lets the paced connection in.
func TestListenerFallbackKeepsPacedConnectionsLive(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const frames = 200
	sink := newCountSink()
	paced := sink.conn("paced")
	published := paced.notify(frames)
	l, err := Listen("127.0.0.1:0", sink.open, quietLogger())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	pc := startClient(t, "paced", l.Addr(), frames)
	waitFor(t, "the paced connection", func() bool { return l.Accepted() == 1 })
	fc := startClient(t, "flood", l.Addr(), int((frames*pacedEvery+500*time.Millisecond)/time.Millisecond))
	select {
	case <-published:
	case <-time.After(30 * time.Second):
		t.Fatalf("%d of %d paced frames published after 30 s", paced.items.Load(), frames)
	}
	if err := pc.Wait(); err != nil {
		t.Errorf("paced client: %v", err)
	}
	if err := fc.Wait(); err != nil {
		t.Errorf("flood client: %v", err)
	}
	if n := sink.conn("flood").items.Load(); n == 0 {
		t.Fatal("the flood published nothing")
	}
	paced.mu.Lock()
	delays := slices.Clone(paced.delays)
	paced.mu.Unlock()
	slices.Sort(delays)
	p50, p99 := delays[len(delays)/2], delays[len(delays)*99/100]
	t.Logf("paced frames published at p50 %v, p99 %v, max %v beside %d flood items",
		p50, p99, delays[len(delays)-1], sink.conn("flood").items.Load())
	if p99 > 100*time.Millisecond {
		t.Fatalf("paced frames published at p99 %v beside a flood, want under 100ms", p99)
	}
}

// waitServed waits until the listener has accepted n connections and
// finished serving every one of them.
func waitServed(t *testing.T, l *Listener, n int64) {
	t.Helper()
	waitFor(t, "the connections to end", func() bool {
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.Accepted() == n && len(l.conns) == 0
	})
}

// TestListenerReadsAreByteIdentical: however the client cuts its writes,
// the listener publishes what Decoder.ReadAll decodes from the same bytes,
// each item under the provenance in effect for it. One-byte writes keep
// every read short; a 200 KB write fills reads, so the reader falls back
// to net.Conn.Read and then returns to raw reads as it catches up.
func TestListenerReadsAreByteIdentical(t *testing.T) {
	c := gen.Sensor(6000, 3)
	wire := AppendHello(nil, "s1", "t")
	var frames [][]byte
	for i, tu := range c.Arrivals() {
		if i%64 == 0 {
			frames = append(frames, AppendBatchMark(nil, stream.BatchProv{BatchID: uint64(i/64 + 1), SendMS: 1754640000000 + int64(i)}))
		}
		frames = append(frames, AppendItem(nil, stream.DataItem(tu)))
	}
	frames = append(frames, AppendItem(nil, stream.Item{Heartbeat: true, Watermark: 1 << 40}))
	for _, f := range frames {
		wire = append(wire, f...)
	}
	if len(wire) <= 200<<10 {
		t.Fatalf("wire is %d bytes, want more than one 200 KB write", len(wire))
	}

	all, err := NewDecoder(bytes.NewReader(wire)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	ref := NewDecoder(bytes.NewReader(wire))
	if err := ref.Hello(); err != nil {
		t.Fatal(err)
	}
	var want []stream.Item
	var wantProvs []stream.BatchProv
	for err == nil {
		n := len(want)
		want, err = ref.Decode(want, ConnBatch)
		for range want[n:] {
			wantProvs = append(wantProvs, ref.Prov())
		}
	}
	if err != io.EOF || !slices.Equal(want, all) {
		t.Fatalf("reference decode: err %v, %d items, ReadAll %d", err, len(want), len(all))
	}

	chunks := func(size int) [][]byte {
		var out [][]byte
		for rest := wire; len(rest) > 0; {
			n := min(size, len(rest))
			out, rest = append(out, rest[:n]), rest[n:]
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		writes [][]byte
	}{
		{"1-byte writes", chunks(1)},
		{"one-frame writes", append([][]byte{AppendHello(nil, "s1", "t")}, frames...)},
		{"40 KB writes", chunks(40 << 10)},
		{"200 KB writes", chunks(200 << 10)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sink := newMemSink()
			l, err := Listen("127.0.0.1:0", sink.open, quietLogger())
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range tc.writes {
				if _, err := conn.Write(w); err != nil {
					t.Fatal(err)
				}
			}
			conn.Close()
			waitServed(t, l, 1)
			if l.Rejected() != 0 {
				t.Fatalf("rejected=%d, want 0", l.Rejected())
			}
			if got := sink.get("s1"); !slices.Equal(got, want) {
				t.Fatalf("published %d items, not the %d ReadAll decodes", len(got), len(want))
			}
			sink.mu.Lock()
			defer sink.mu.Unlock()
			if !slices.Equal(sink.provs["s1"], wantProvs) {
				t.Fatal("items published under other provenance than the reference decode's")
			}
		})
	}
}

// TestListenerReadErrorsClassified: the raw reads end a connection the way
// net.Conn.Read did. A clean EOF is no rejection; a reset in the middle of
// a frame is exactly one, on the counters TestListenerCountsMatchTheirCatalogRows
// reads.
func TestListenerReadErrorsClassified(t *testing.T) {
	frames := AppendHello(nil, "s1", "")
	for _, it := range testItems(10) {
		frames = AppendItem(frames, it)
	}
	for _, tc := range []struct {
		name     string
		tail     []byte
		reset    bool
		rejected int64
	}{
		{"clean EOF", nil, false, 0},
		{"reset mid-frame", []byte("D 100 105 1"), true, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sink := newMemSink()
			l, err := Listen("127.0.0.1:0", sink.open, quietLogger())
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Write(frames); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "the whole frames", func() bool { return sink.count("s1") == 10 })
			if _, err := conn.Write(tc.tail); err != nil {
				t.Fatal(err)
			}
			if tc.reset {
				if err := conn.(*net.TCPConn).SetLinger(0); err != nil {
					t.Fatal(err)
				}
			}
			conn.Close()
			waitServed(t, l, 1)
			if l.Accepted() != 1 || l.Rejected() != tc.rejected {
				t.Fatalf("accepted=%d rejected=%d, want 1 and %d", l.Accepted(), l.Rejected(), tc.rejected)
			}
		})
	}
}

// TestListenerCloseUnparksReads: Close while a connection waits for input
// ends it at once, counts no rejection and leaves no goroutine behind.
func TestListenerCloseUnparksReads(t *testing.T) {
	base := runtime.NumGoroutine()
	sink := newMemSink()
	l, err := Listen("127.0.0.1:0", sink.open, quietLogger())
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(AppendItem(AppendHello(nil, "s1", ""), testItems(1)[0])); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the frame", func() bool { return sink.count("s1") == 1 })

	closed := make(chan error, 1)
	go func() { closed <- l.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close did not return within 1 s of a parked read")
	}
	if l.Accepted() != 1 || l.Rejected() != 0 {
		t.Fatalf("accepted=%d rejected=%d after Close, want 1 and 0", l.Accepted(), l.Rejected())
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before Listen, %d still there 2s after Close:\n%s",
				base, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// tcpPair returns both ends of a loopback TCP connection.
func tcpPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if client, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	if server, err = ln.Accept(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

// TestConnReaderDeadline: a read deadline surfaces as os.ErrDeadlineExceeded,
// a timeout, through the listener's reader, and a cleared deadline reads
// again.
func TestConnReaderDeadline(t *testing.T) {
	client, server := tcpPair(t)
	r := connReader(server)
	if err := server.SetReadDeadline(time.Now().Add(20 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	_, err := r.Read(buf)
	var ne net.Error
	if !errors.Is(err, os.ErrDeadlineExceeded) || !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("read past the deadline: %v, want a timeout wrapping os.ErrDeadlineExceeded", err)
	}
	var op *net.OpError
	if !errors.As(err, &op) || op.Op != "read" {
		t.Fatalf("read past the deadline: %#v, want a *net.OpError of op read", err)
	}
	if err := server.SetReadDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if n, err := r.Read(buf); n != 1 || err != nil {
		t.Fatalf("read after clearing the deadline: %d, %v", n, err)
	}
}

// TestConnReaderErrorsMatchConnRead: the errors a reset connection gives the
// listener's reader are the ones net.Conn.Read gives.
func TestConnReaderErrorsMatchConnRead(t *testing.T) {
	readAfterReset := func(read func(net.Conn, []byte) (int, error)) error {
		client, server := tcpPair(t)
		if err := client.(*net.TCPConn).SetLinger(0); err != nil {
			t.Fatal(err)
		}
		client.Close()
		_, err := read(server, make([]byte, 64))
		return err
	}
	raw := readAfterReset(func(c net.Conn, p []byte) (int, error) { return connReader(c).Read(p) })
	plain := readAfterReset(func(c net.Conn, p []byte) (int, error) { return c.Read(p) })
	var rawOp, plainOp *net.OpError
	if !errors.As(raw, &rawOp) || !errors.As(plain, &plainOp) {
		t.Fatalf("errors %#v and %#v, want *net.OpError both", raw, plain)
	}
	if rawOp.Op != plainOp.Op || rawOp.Net != plainOp.Net || fmt.Sprintf("%T", rawOp.Err) != fmt.Sprintf("%T", plainOp.Err) ||
		!errors.Is(raw, syscall.ECONNRESET) || !errors.Is(plain, syscall.ECONNRESET) {
		t.Fatalf("reset read through connReader: %v; through net.Conn.Read: %v", raw, plain)
	}
}
