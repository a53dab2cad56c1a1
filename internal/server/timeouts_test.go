package server

import "testing"

// The slow-client bounds must land on the http.Server both binaries
// serve through — and the header timeout is always present.
func TestHTTPServerTimeouts(t *testing.T) {
	hs := NewHTTPServer(nil)
	if hs.ReadTimeout != DefaultReadTimeout ||
		hs.WriteTimeout != DefaultWriteTimeout ||
		hs.IdleTimeout != DefaultIdleTimeout {
		t.Fatalf("defaults not applied: read=%v write=%v idle=%v", hs.ReadTimeout, hs.WriteTimeout, hs.IdleTimeout)
	}
	if hs.ReadHeaderTimeout == 0 {
		t.Fatal("header timeout lost")
	}
}
