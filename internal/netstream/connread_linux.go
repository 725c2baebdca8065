//go:build linux

package netstream

import (
	"errors"
	"io"
	"net"
	"os"
	"syscall"
	"unsafe"
)

// connReader returns what the listener's decoder reads c through. A socket
// is read with read(2) issued as a raw syscall inside its RawConn: on a
// non-blocking socket the call cannot block, so it needs none of the P
// hand-off the runtime's syscall hook exists for, and skipping the hook
// keeps the runtime's monitor thread (sysmon) asleep between a paced
// client's ticks instead of waking it on every tick's first read. Anything
// that is not a socket is read as it is.
func connReader(c net.Conn) io.Reader {
	sc, ok := c.(syscall.Conn)
	if !ok {
		return c
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return c
	}
	r := &rawReader{c: c, rc: rc}
	r.readFD = r.read
	return r
}

// rawReader reads a socket with raw read(2)s while the peer is behind the
// server, and through net.Conn.Read while it is ahead. A read that fills
// its buffer says the peer is ahead — a flood, or catch-up after a stall —
// and the next read goes through net.Conn.Read: its syscall hook keeps
// sysmon awake, which a busy P needs to be preempted and to have the
// network polled for the server's other goroutines. The first read that
// does not fill its buffer switches back. EAGAIN parks the goroutine on the
// netpoller either way, so deadlines, Close and the errors a caller sees
// are net.Conn.Read's.
type rawReader struct {
	c      net.Conn
	rc     syscall.RawConn
	readFD func(fd uintptr) bool // r.read, bound once so a Read does not allocate
	ahead  bool                  // the last read filled its buffer

	// The raw read's buffer and outcome, passed through the struct for the
	// same reason.
	p     []byte
	n     int
	errno syscall.Errno
}

func (r *rawReader) Read(p []byte) (int, error) {
	if r.ahead || len(p) == 0 {
		n, err := r.c.Read(p)
		r.ahead = n > 0 && n == len(p)
		return n, err
	}
	r.p = p
	err := r.rc.Read(r.readFD)
	switch {
	case err != nil:
		// RawConn.Read names its errors "raw-read"; surface the cause
		// (net.ErrClosed, os.ErrDeadlineExceeded) as net.Conn.Read would.
		var op *net.OpError
		if errors.As(err, &op) {
			err = op.Err
		}
		return 0, r.opError(err)
	case r.errno != 0:
		return 0, r.opError(os.NewSyscallError("read", r.errno))
	case r.n == 0:
		return 0, io.EOF
	}
	r.ahead = r.n == len(p)
	return r.n, nil
}

// read is the RawConn callback: one read(2) into r.p, retried on EINTR;
// false on EAGAIN parks the caller until the socket is readable.
func (r *rawReader) read(fd uintptr) bool {
	for {
		n, _, errno := syscall.RawSyscall(syscall.SYS_READ, fd, uintptr(unsafe.Pointer(&r.p[0])), uintptr(len(r.p)))
		switch errno {
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		}
		r.n, r.errno = int(n), errno
		return true
	}
}

func (r *rawReader) opError(err error) error {
	return &net.OpError{Op: "read", Net: r.c.LocalAddr().Network(), Source: r.c.LocalAddr(), Addr: r.c.RemoteAddr(), Err: err}
}
