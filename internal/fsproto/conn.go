package fsproto

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http/httputil"
	"net/url"
	"os"
	"strconv"
	"time"
)

// Conn is the client end of the /v1 data plane: one keep-alive TCP
// connection to a base URL, carrying one HTTP/1.1 POST at a time. An
// exchange is one gathered write of the request and one parse of the
// response, both on the caller's goroutine — no background reader, no
// handoff. A Conn is not safe for concurrent use; whoever holds it owns it
// for the length of a Do.
//
// The connection is made by the first Do and remade by the next Do after
// anything closed it (an error, the server's "Connection: close", Close).
type Conn struct {
	addr   string // host:port to dial
	host   string // Host header
	prefix string // the base URL's path, sent before every request path

	deadline time.Time
	nc       net.Conn
	br       *bufio.Reader
	head     []byte // request head scratch
	out      sender
}

// Request is one POST. The body sent is Body followed by Tail, so a payload
// frame goes out as its prefix and meta (AppendFrame with no payload) and
// then the payload, without the two being joined first.
type Request struct {
	// Method is what a server read off the request line; a Conn sends POST
	// whatever it holds.
	Method      string
	Path        string
	ContentType string
	Token       string // TokenHeader; "" sends none
	Trace       TraceContext
	// Forwarded marks the one hop inside the fabric (ForwardedHeader); Peer,
	// when set, carries the entry node's session identity with it.
	Forwarded bool
	Peer      *Peer
	Body      []byte
	Tail      []byte
}

// Peer is the session identity the peer headers carry.
type Peer struct {
	Tenant string
	UID    uint32
	Pass   string
}

// Response is what the protocol defines of an answer; every other header is
// skipped unparsed.
type Response struct {
	Status      int
	ContentType string
	RequestID   string // RequestIDHeader
	QueueDepth  int64  // QueueDepthHeader; -1 when absent or malformed
	// Close is "Connection: close": the sender ends the connection after
	// this response.
	Close bool
	Body  []byte
}

// WireError reports an exchange that failed before any response body: the
// dial, the write, or the read and parse of the response head. The server
// may or may not have executed the request.
type WireError struct {
	Op  string // "dial", "write" or "read"
	Err error
}

func (e *WireError) Error() string { return "fsproto: " + e.Op + ": " + e.Err.Error() }
func (e *WireError) Unwrap() error { return e.Err }

// A head is at most maxHeaderLines lines of at most maxLineBytes each, on
// both ends. connBufSize is either end's read buffer and write scratch: a
// page exchange — head plus 4 KiB — fits, so it is one read and one write.
const (
	maxHeaderLines = 64
	maxLineBytes   = 4096
	connBufSize    = 4096 + 1024
)

// Dial returns a Conn for a base URL such as "http://127.0.0.1:9144"; a
// path in it prefixes every request path. No connection is made until the
// first Do. Only plain http is spoken.
func Dial(base string) (*Conn, error) {
	u, err := url.Parse(base)
	if err != nil {
		return nil, fmt.Errorf("fsproto: base URL: %w", err)
	}
	if u.Scheme != "http" || u.Host == "" || u.RawQuery != "" || u.Fragment != "" {
		return nil, fmt.Errorf("fsproto: base URL %q: want http://host[:port][/prefix]", base)
	}
	c := &Conn{addr: u.Host, host: u.Host, prefix: u.EscapedPath(), head: make([]byte, 0, connBufSize)}
	if u.Port() == "" {
		c.addr = net.JoinHostPort(u.Hostname(), "80")
	}
	if !cleanToken(c.host) || !cleanToken(c.prefix) {
		return nil, fmt.Errorf("fsproto: base URL %q: control or space character", base)
	}
	return c, nil
}

// SetDeadline bounds every later exchange, dial included, by the absolute
// time t, as on a net.Conn; the zero time removes the bound.
func (c *Conn) SetDeadline(t time.Time) {
	c.deadline = t
	if c.nc != nil {
		// Fails only on a connection already closed; the next write says so.
		_ = c.nc.SetDeadline(t)
	}
}

// Close closes the connection. The Conn stays usable: the next Do redials.
func (c *Conn) Close() {
	if c.nc != nil {
		c.nc.Close()
		c.nc = nil
	}
}

// Do sends req and reads its response.
//
// One case is resent, once, transparently: the exchange ran on a connection
// kept from an earlier Do and ended — other than by the deadline — before a
// single byte of response arrived. That is what a server closing an idle
// keep-alive connection looks like from here, and a server closes only
// connections on which it has not begun to read a request. Any failure
// after the first response byte, or on a connection this Do dialled, is
// returned: the request may have run, and a write is not idempotent.
func (c *Conn) Do(req *Request) (Response, error) {
	if err := c.buildHead(req); err != nil {
		return Response{}, err
	}
	reused := c.nc != nil
	resp, started, err := c.exchange(req)
	if err != nil && reused && !started && !errors.Is(err, os.ErrDeadlineExceeded) {
		resp, _, err = c.exchange(req)
	}
	return resp, err
}

// buildHead renders the request line and headers into c.head.
func (c *Conn) buildHead(req *Request) error {
	if !cleanToken(req.Path) || !cleanValue(req.ContentType) || !cleanValue(req.Token) ||
		req.Peer != nil && !(cleanValue(req.Peer.Tenant) && cleanValue(req.Peer.Pass)) {
		return errors.New("fsproto: control character in a request path or header value")
	}
	b := append(c.head[:0], "POST "...)
	b = append(append(b, c.prefix...), req.Path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, c.host...)
	b = append(b, "\r\nContent-Type: "...)
	b = append(b, req.ContentType...)
	b = append(b, "\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(req.Body)+len(req.Tail)), 10)
	if req.Token != "" {
		b = append(b, "\r\n"+TokenHeader+": "...)
		b = append(b, req.Token...)
	}
	b = append(b, "\r\n"+TraceHeader+": "...)
	b = req.Trace.appendTo(b)
	if req.Forwarded {
		b = append(b, "\r\n"+ForwardedHeader+": 1"...)
	}
	if p := req.Peer; p != nil {
		b = append(b, "\r\n"+PeerTenantHeader+": "...)
		b = append(b, p.Tenant...)
		b = append(b, "\r\n"+PeerUIDHeader+": "...)
		b = strconv.AppendUint(b, uint64(p.UID), 10)
		b = append(b, "\r\n"+PeerPassHeader+": "...)
		b = append(b, p.Pass...)
	}
	c.head = append(b, "\r\n\r\n"...)
	return nil
}

// cleanValue reports whether s can stand as a header value: no control
// character that could end the line early. cleanToken also refuses spaces,
// for the parts of the request line.
func cleanValue[T string | []byte](s T) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' && c != '\t' || c == 0x7f {
			return false
		}
	}
	return true
}

func cleanToken[T string | []byte](s T) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c <= ' ' || c == 0x7f {
			return false
		}
	}
	return true
}

// exchange is one attempt: dial if there is no connection, write, parse.
// started reports whether any response byte was read. On any error the
// connection is closed.
func (c *Conn) exchange(req *Request) (resp Response, started bool, err error) {
	if c.nc == nil {
		d := net.Dialer{Deadline: c.deadline}
		nc, err := d.Dial("tcp", c.addr)
		if err != nil {
			return resp, false, &WireError{Op: "dial", Err: err}
		}
		c.nc = nc
		if c.br == nil {
			c.br = bufio.NewReaderSize(nc, connBufSize)
		} else {
			c.br.Reset(nc)
		}
		c.SetDeadline(c.deadline)
	}
	if err := c.out.send(c.nc, c.head, req.Body, req.Tail); err != nil {
		c.Close()
		return resp, false, &WireError{Op: "write", Err: err}
	}
	if _, err := c.br.Peek(1); err != nil {
		c.Close()
		return resp, false, &WireError{Op: "read", Err: err}
	}
	length, chunked, err := c.readHead(&resp)
	if err != nil {
		c.Close()
		return resp, true, &WireError{Op: "read", Err: err}
	}
	if chunked {
		if resp.Body, err = ReadBody(httputil.NewChunkedReader(c.br), -1, MaxBodyBytes); err == nil {
			err = c.skipTrailer()
		}
	} else {
		// Neither length nor chunking: the body runs to the close.
		resp.Close = resp.Close || length < 0
		resp.Body, err = ReadBody(c.br, length, MaxBodyBytes)
	}
	// Bytes beyond the response would be read as the head of the next one.
	if err != nil || resp.Close || c.br.Buffered() > 0 {
		c.Close()
	}
	return resp, true, err
}

// sender writes one message: a head followed by up to two body parts.
type sender struct {
	bufv [3][]byte   // backing array of wv
	wv   net.Buffers // the gathered write, rebuilt per message
}

// send writes head ‖ body ‖ tail to nc as one write: of one buffer when the
// body fits the head scratch's spare capacity (a page exchange does), else
// gathered, the body going to the socket from the caller's slices.
func (s *sender) send(nc net.Conn, head, body, tail []byte) error {
	if len(body)+len(tail) <= cap(head)-len(head) {
		_, err := nc.Write(append(append(head, body...), tail...))
		return err
	}
	s.wv = append(s.bufv[:0], head)
	for _, b := range [...][]byte{body, tail} {
		if len(b) > 0 {
			s.wv = append(s.wv, b)
		}
	}
	_, err := s.wv.WriteTo(nc)
	return err
}

// readHead parses the status line and the headers the protocol defines.
// length is the declared Content-Length, -1 without one.
func (c *Conn) readHead(resp *Response) (length int64, chunked bool, err error) {
	line, err := readLine(c.br, false)
	if err != nil {
		return 0, false, err
	}
	// "HTTP/1.x NNN[ reason]"
	if len(line) < 12 || string(line[:7]) != "HTTP/1." || line[7] != '0' && line[7] != '1' ||
		line[8] != ' ' || len(line) > 12 && line[12] != ' ' {
		return 0, false, fmt.Errorf("malformed status line %q", line)
	}
	status, ok := parseDigits(line[9:12])
	if !ok || status < 200 {
		return 0, false, fmt.Errorf("malformed status line %q", line)
	}
	resp.Status, resp.QueueDepth = int(status), -1
	resp.Close = line[7] == '0' // HTTP/1.0 closes after every response
	length = -1
	for n := 0; ; n++ {
		if line, err = readLine(c.br, false); err != nil {
			return 0, false, err
		}
		if len(line) == 0 {
			break
		}
		name, value, ok := splitHeader(line)
		if !ok || n == maxHeaderLines {
			return 0, false, fmt.Errorf("malformed or over-long response head at %q", line)
		}
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			v, ok := parseDigits(value)
			if !ok || length >= 0 {
				return 0, false, fmt.Errorf("bad or repeated Content-Length %q", value)
			}
			length = v
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			if !bytes.EqualFold(value, []byte("chunked")) {
				return 0, false, fmt.Errorf("unsupported Transfer-Encoding %q", value)
			}
			chunked = true
		case bytes.EqualFold(name, []byte("Connection")):
			resp.Close = resp.Close || hasClose(value)
		case bytes.EqualFold(name, []byte("Content-Type")):
			resp.ContentType = contentType(value)
		case bytes.EqualFold(name, []byte(RequestIDHeader)):
			resp.RequestID = string(value)
		case bytes.EqualFold(name, []byte(QueueDepthHeader)):
			if v, ok := parseDigits(value); ok {
				resp.QueueDepth = v
			}
		}
	}
	if chunked && length >= 0 {
		return 0, false, errors.New("both Content-Length and Transfer-Encoding: chunked")
	}
	if status == 204 || status == 304 {
		length, chunked = 0, false // defined to have no body, whatever the headers say
	}
	return length, chunked, nil
}

// readLine reads one head line, of at most maxLineBytes, without its line
// ending — which must be CRLF when crlf is set (the server's end), and may
// be a bare LF otherwise. The slice is valid until the next read.
func readLine(br *bufio.Reader, crlf bool) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if errors.Is(err, bufio.ErrBufferFull) || len(line) > maxLineBytes {
		return nil, grammarError("head line over 4 KiB")
	}
	if err != nil {
		return nil, err
	}
	if !crlf {
		return bytes.TrimRight(line, "\r\n"), nil
	}
	if !bytes.HasSuffix(line, []byte("\r\n")) {
		return nil, grammarError("head line ended by a bare LF")
	}
	return line[:len(line)-2], nil
}

// splitHeader splits a header line at its colon and trims the value.
func splitHeader(line []byte) (name, value []byte, ok bool) {
	colon := bytes.IndexByte(line, ':')
	if colon <= 0 {
		return nil, nil, false
	}
	return line[:colon], bytes.Trim(line[colon+1:], " \t"), true
}

// skipTrailer consumes what follows the last chunk, up to the blank line.
func (c *Conn) skipTrailer() error {
	for n := 0; n <= maxHeaderLines; n++ {
		line, err := readLine(c.br, false)
		if err != nil {
			return fmt.Errorf("fsproto: read chunked trailer: %w", err)
		}
		if len(line) == 0 {
			return nil
		}
	}
	return errors.New("fsproto: chunked trailer too long")
}

// parseDigits parses a non-negative decimal of at most 18 digits — no sign,
// no space, nothing that could overflow.
func parseDigits(b []byte) (int64, bool) {
	if len(b) == 0 || len(b) > 18 {
		return 0, false
	}
	var v int64
	for _, d := range b {
		if d < '0' || d > '9' {
			return 0, false
		}
		v = v*10 + int64(d-'0')
	}
	return v, true
}

// contentType returns v as a string, without allocating for the protocol's
// own three types.
func contentType(v []byte) string {
	switch string(v) {
	case ContentTypeOctets:
		return ContentTypeOctets
	case ContentTypeJSON:
		return ContentTypeJSON
	case ContentTypeFrame:
		return ContentTypeFrame
	}
	return string(v)
}
