package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// httpConn is one keep-alive HTTP/1.1 connection driven by hand: the
// request is a byte slice built during set-up and the response is read
// into a reused buffer, so a round trip in a timed phase allocates
// nothing and spends as little of the two shared cores as a client can.
// It understands exactly what net/http's server sends: a status line,
// headers, and a body framed by Content-Length or chunked encoding.
type httpConn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	body []byte
}

const ioTimeout = 10 * time.Second

func dialHTTP(addr string) (*httpConn, error) {
	h := &httpConn{addr: addr, body: make([]byte, 0, 16<<10)}
	if err := h.redial(); err != nil {
		return nil, err
	}
	return h, nil
}

func (h *httpConn) redial() error {
	if h.c != nil {
		h.c.Close()
	}
	c, err := net.DialTimeout("tcp", h.addr, ioTimeout)
	if err != nil {
		return fmt.Errorf("dial %s: %w", h.addr, err)
	}
	h.c = c
	if h.br == nil {
		h.br = bufio.NewReaderSize(c, 32<<10)
	} else {
		h.br.Reset(c)
	}
	return nil
}

func (h *httpConn) close() {
	if h.c != nil {
		h.c.Close()
		h.c = nil
	}
}

// getRequest and postRequest build complete request bytes.
func getRequest(pathAndQuery string) []byte {
	return []byte("GET " + pathAndQuery + " HTTP/1.1\r\nHost: bench\r\n\r\n")
}

func postRequest(path string, body []byte) []byte {
	return appendPost(nil, path, body)
}

// appendPost appends a POST of body to dst; with a dst of enough capacity
// it allocates nothing.
func appendPost(dst []byte, path string, body []byte) []byte {
	dst = append(dst, "POST "...)
	dst = append(dst, path...)
	dst = append(dst, " HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: "...)
	dst = strconv.AppendInt(dst, int64(len(body)), 10)
	dst = append(dst, "\r\n\r\n"...)
	return append(dst, body...)
}

var (
	hdrContentLength = []byte("content-length:")
	hdrChunked       = []byte("transfer-encoding: chunked")
	hdrClose         = []byte("connection: close")
)

// roundTrip writes req and reads one whole response. The returned body
// aliases the connection's buffer and is valid until the next call. After
// an error the connection is redialled so the next operation starts clean.
func (h *httpConn) roundTrip(req []byte) (status int, body []byte, err error) {
	status, body, err = h.exchange(req)
	if err != nil {
		if rerr := h.redial(); rerr != nil {
			err = fmt.Errorf("%w (and %v)", err, rerr)
		}
	}
	return status, body, err
}

func (h *httpConn) exchange(req []byte) (int, []byte, error) {
	h.c.SetDeadline(time.Now().Add(ioTimeout))
	if _, err := h.c.Write(req); err != nil {
		return 0, nil, err
	}
	line, err := h.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	length, chunked, closing := -1, false, false
	for {
		line, err = h.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(line) <= 2 {
			break
		}
		switch {
		case hasPrefixFold(line, hdrContentLength):
			length, err = strconv.Atoi(string(bytes.TrimSpace(line[len(hdrContentLength):])))
			if err != nil {
				return 0, nil, fmt.Errorf("bad content-length %q", line)
			}
		case hasPrefixFold(line, hdrChunked):
			chunked = true
		case hasPrefixFold(line, hdrClose):
			closing = true
		}
	}
	h.body = h.body[:0]
	switch {
	case chunked:
		for {
			line, err = h.br.ReadSlice('\n')
			if err != nil {
				return 0, nil, err
			}
			n, err := strconv.ParseInt(string(bytes.TrimSpace(line)), 16, 32)
			if err != nil {
				return 0, nil, fmt.Errorf("bad chunk size %q", line)
			}
			if err := h.readBody(int(n) + 2); err != nil { // chunk + CRLF
				return 0, nil, err
			}
			h.body = h.body[:len(h.body)-2]
			if n == 0 {
				break
			}
		}
	case length >= 0:
		if err := h.readBody(length); err != nil {
			return 0, nil, err
		}
	default:
		return 0, nil, fmt.Errorf("response without length framing")
	}
	if closing {
		return status, h.body, fmt.Errorf("server closed the connection (status %d)", status)
	}
	return status, h.body, nil
}

// readBody appends exactly n bytes of the stream to h.body.
func (h *httpConn) readBody(n int) error {
	at := len(h.body)
	if cap(h.body) < at+n {
		grown := make([]byte, at, 2*(at+n))
		copy(grown, h.body)
		h.body = grown
	}
	h.body = h.body[:at+n]
	_, err := io.ReadFull(h.br, h.body[at:])
	return err
}

func hasPrefixFold(line, lowerPrefix []byte) bool {
	return len(line) >= len(lowerPrefix) && bytes.EqualFold(line[:len(lowerPrefix)], lowerPrefix)
}

// jsonUint reads the unsigned integer that follows pat (a `"key":` byte
// pattern) in a flat JSON object without decoding the rest — enough for
// the lease id and resource of an /allocate answer inside a timed phase.
func jsonUint(body, pat []byte) (uint64, bool) {
	i := bytes.Index(body, pat)
	if i < 0 {
		return 0, false
	}
	i += len(pat)
	var v uint64
	start := i
	for i < len(body) && body[i] >= '0' && body[i] <= '9' {
		v = v*10 + uint64(body[i]-'0')
		i++
	}
	return v, i > start
}
