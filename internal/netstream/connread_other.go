//go:build !linux

package netstream

import (
	"io"
	"net"
)

// connReader returns what the listener's decoder reads c through: off Linux,
// the connection itself.
func connReader(c net.Conn) io.Reader { return c }
