//go:build linux

package netstream

import (
	"bytes"
	"testing"
)

// TestRawReaderFallsBackWhileThePeerIsAhead: a read that fills its buffer
// sends the next one through net.Conn.Read, the first read that does not
// fill it returns to raw reads, and the bytes come through unchanged.
func TestRawReaderFallsBackWhileThePeerIsAhead(t *testing.T) {
	client, server := tcpPair(t)
	r, ok := connReader(server).(*rawReader)
	if !ok {
		t.Fatalf("connReader(%T) is a %T, want the raw reader", server, connReader(server))
	}
	sent := bytes.Repeat([]byte("0123456789abcdef"), 200<<10/16)
	werr := make(chan error, 1)
	go func() { _, err := client.Write(sent); werr <- err }()

	var got []byte
	buf := make([]byte, 4<<10)
	viaConn := 0
	for len(got) < len(sent) {
		if r.ahead {
			viaConn++
		}
		n, err := r.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		if r.ahead != (n == len(buf)) {
			t.Fatalf("read %d of %d bytes left ahead=%v", n, len(buf), r.ahead)
		}
		got = append(got, buf[:n]...)
	}
	if err := <-werr; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, sent) {
		t.Fatal("bytes read differ from bytes written")
	}
	if viaConn == 0 {
		t.Fatal("no read of a 200 KB write in 4 KB reads went through net.Conn.Read")
	}

	// Caught up: a short write is read raw again.
	if _, err := client.Write([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	for r.ahead { // the last read of the 200 KB may have filled its buffer exactly
		if _, err := r.Read(buf); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := r.Read(buf); err != nil || n == 0 || r.ahead {
		t.Fatalf("raw read after catching up: %d, %v, ahead=%v", n, err, r.ahead)
	}
}
