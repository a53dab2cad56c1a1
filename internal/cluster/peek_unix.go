//go:build unix

package cluster

import (
	"net"
	"syscall"
)

// peerOpen reports whether the peer of an idle connection has not closed
// it: a MSG_PEEK on the non-blocking socket finds nothing to read (EOF,
// stray bytes or an error all unfit it for a request).
func peerOpen(c net.Conn) bool {
	sc, ok := c.(syscall.Conn)
	if !ok {
		return true
	}
	rc, err := sc.SyscallConn()
	open := false
	if err == nil {
		var b [1]byte
		err = rc.Read(func(fd uintptr) bool {
			_, _, err := syscall.Recvfrom(int(fd), b[:], syscall.MSG_PEEK)
			open = err == syscall.EAGAIN || err == syscall.EWOULDBLOCK
			return true
		})
	}
	return err == nil && open
}
