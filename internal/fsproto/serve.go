package fsproto

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"
)

// ServeConn is the server end of the /v1 data plane on one connection, the
// mirror of Conn: read one request — the request line, the protocol's own
// headers (every other header is skipped unparsed), a body of the declared
// length — hand it to h, send h's answer as one write, and again until
// either side closes. Everything runs on the caller's goroutine. ServeConn
// returns when the connection is done, and closes it.
//
// br, when not nil, is a reader that is already ahead of nc (a hijacked
// connection's): what it has buffered is served first, in order.
//
// h gets the connection's one Request, valid until h returns except for its
// Body, which is the request's own buffer. The Body of the Response h returns
// must stay valid until h is called again or ServeConn returns. A Response
// with Close set ends the connection once it is sent; so do a request
// "Connection: close" and HTTP/1.0.
//
// Framing is refused, never guessed. Transfer-Encoding, Expect, a repeated,
// signed, non-decimal or over-long Content-Length, a header line without a
// colon or starting with whitespace, a line not ended by CRLF or over 4 KiB,
// more than maxHeaderLines lines, a control character in a header value, a
// body over MaxBodyBytes or shorter than declared: each is answered 400 with
// the JSON error body and "Connection: close", h is not called, and the
// connection is closed. No Content-Length is a zero-length body.
//
// The result is nil when the connection ended between requests, and a
// *WireError otherwise: Op "write" when an answer could not be sent, "read"
// for a refused request or a connection lost inside one.
func ServeConn(nc net.Conn, br *bufio.Reader, h func(*Request) Response) error {
	defer nc.Close()
	var src io.Reader = nc
	if br != nil {
		src = br
	}
	s := serverConn{nc: nc, br: bufio.NewReaderSize(src, connBufSize), head: make([]byte, 0, connBufSize)}
	for {
		if _, err := s.br.Peek(1); err != nil {
			return nil // closed, or kicked by a read deadline, between requests
		}
		closing, err := s.readRequest()
		var refused grammarError
		var resp Response
		switch {
		case errors.As(err, &refused):
			resp, closing = ErrorResponse(http.StatusBadRequest, CodeBadRequest, "fsproto: refused: "+string(refused)), true
		case err != nil:
			return &WireError{Op: "read", Err: err}
		default:
			resp = h(&s.req)
		}
		resp.Close = resp.Close || closing
		if err := s.writeResponse(&resp); err != nil {
			return &WireError{Op: "write", Err: err}
		}
		if refused != "" {
			s.linger()
			return &WireError{Op: "read", Err: refused}
		}
		if resp.Close {
			return nil
		}
	}
}

// ErrorResponse is the answer a non-2xx status carries: the Error JSON.
func ErrorResponse(status int, code, msg string) Response {
	body, _ := json.Marshal(Error{Code: code, Message: msg}) // two strings: cannot fail
	return Response{Status: status, ContentType: ContentTypeJSON, QueueDepth: -1, Body: append(body, '\n')}
}

// grammarError is a head or body outside the protocol's grammar: the client
// gives up on the connection, the server refuses the request.
type grammarError string

func (e grammarError) Error() string { return string(e) }

func refusef(format string, args ...any) error { return grammarError(fmt.Sprintf(format, args...)) }

// serverConn is the state of one ServeConn.
type serverConn struct {
	nc   net.Conn
	br   *bufio.Reader
	req  Request
	head []byte // response head scratch
	out  sender
	// A connection repeats its path and token: the strings of the last
	// request are kept and reused when the bytes are the same.
	path, token string
}

// keep returns b as a string, *last itself when it already holds b's bytes.
func keep(last *string, b []byte) string {
	if string(b) != *last {
		*last = string(b)
	}
	return *last
}

// The protocol's request headers, lower-cased for the parser's switch.
const (
	hContentLength = "content-length"
	hContentType   = "content-type"
	hConnection    = "connection"
	hTransferEnc   = "transfer-encoding"
	hExpect        = "expect"
)

var (
	hToken      = strings.ToLower(TokenHeader)
	hTrace      = strings.ToLower(TraceHeader)
	hForwarded  = strings.ToLower(ForwardedHeader)
	hPeerTenant = strings.ToLower(PeerTenantHeader)
	hPeerUID    = strings.ToLower(PeerUIDHeader)
	hPeerPass   = strings.ToLower(PeerPassHeader)
)

// readRequest reads one request into s.req. closing reports that the client
// asked for the connection to end after the answer.
func (s *serverConn) readRequest() (closing bool, err error) {
	line, err := readLine(s.br, true)
	if err != nil {
		return false, err
	}
	// "METHOD target HTTP/1.x"
	sp1, sp2 := bytes.IndexByte(line, ' '), bytes.LastIndexByte(line, ' ')
	if sp1 <= 0 || sp2-sp1 < 2 {
		return false, refusef("malformed request line %q", line)
	}
	method, target, proto := line[:sp1], line[sp1+1:sp2], line[sp2+1:]
	if len(proto) != 8 || string(proto[:7]) != "HTTP/1." || proto[7] != '0' && proto[7] != '1' ||
		!cleanToken(method) || !cleanToken(target) {
		return false, refusef("malformed request line %q", line)
	}
	closing = proto[7] == '0'
	req := &s.req
	*req = Request{Path: keep(&s.path, target)}
	if string(method) != http.MethodPost {
		req.Method = string(method)
	}
	length := int64(-1)
	var peer Peer
	peerUID := false
	for n := 0; ; n++ {
		if line, err = readLine(s.br, true); err != nil {
			return false, err
		}
		if len(line) == 0 {
			break
		}
		name, value, ok := splitHeader(line)
		if !ok || n == maxHeaderLines || !cleanToken(name) || !cleanValue(value) {
			return false, refusef("malformed or over-long request head at %q", line)
		}
		for i, c := range name {
			if 'A' <= c && c <= 'Z' {
				name[i] = c + ('a' - 'A')
			}
		}
		switch string(name) {
		case hContentLength:
			v, ok := parseDigits(value)
			if !ok || length >= 0 {
				return false, refusef("bad or repeated Content-Length %q", value)
			}
			length = v
		case hTransferEnc, hExpect:
			return false, refusef("unsupported header %q", line)
		case hConnection:
			closing = closing || hasClose(value)
		case hContentType:
			req.ContentType = contentType(value)
		case hToken:
			req.Token = keep(&s.token, value)
		case hTrace:
			req.Trace, _ = ParseTraceContext(string(value))
		case hForwarded:
			req.Forwarded = len(value) > 0
		case hPeerTenant:
			peer.Tenant = string(value)
		case hPeerUID:
			v, ok := parseDigits(value)
			peer.UID, peerUID = uint32(v), ok && v <= math.MaxUint32
		case hPeerPass:
			peer.Pass = string(value)
		}
	}
	if peer.Tenant != "" && peerUID {
		p := peer // only a request that carries one pays for it
		req.Peer = &p
	}
	if length > MaxBodyBytes {
		return false, refusef("%d-byte body exceeds the %d-byte limit", length, MaxBodyBytes)
	}
	if length > 0 {
		// One buffer per request, GC-owned: a queued write may outlive its
		// request (see the server's decode).
		if req.Body, err = ReadBody(s.br, length, MaxBodyBytes); err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				return false, err
			}
			return false, grammarError(strings.TrimPrefix(err.Error(), "fsproto: "))
		}
	}
	return closing, nil
}

// hasClose reports whether a Connection header value lists "close".
func hasClose(v []byte) bool {
	for len(v) > 0 {
		var tok []byte
		tok, v, _ = bytes.Cut(v, []byte(","))
		if bytes.EqualFold(bytes.TrimSpace(tok), []byte("close")) {
			return true
		}
	}
	return false
}

// writeResponse sends resp: the head rendered into the scratch, then the
// body, as one write.
func (s *serverConn) writeResponse(resp *Response) error {
	b := append(s.head[:0], "HTTP/1.1 "...)
	b = strconv.AppendInt(b, int64(resp.Status), 10)
	b = append(append(b, ' '), http.StatusText(resp.Status)...)
	b = append(append(b, "\r\nContent-Type: "...), resp.ContentType...)
	b = strconv.AppendInt(append(b, "\r\nContent-Length: "...), int64(len(resp.Body)), 10)
	if resp.RequestID != "" {
		b = append(append(b, "\r\n"+RequestIDHeader+": "...), resp.RequestID...)
	}
	if resp.QueueDepth >= 0 {
		b = strconv.AppendInt(append(b, "\r\n"+QueueDepthHeader+": "...), resp.QueueDepth, 10)
	}
	if resp.Close {
		b = append(b, "\r\nConnection: close"...)
	}
	b = append(b, "\r\n\r\n"...)
	return s.out.send(s.nc, b, resp.Body, nil)
}

// A refused request may still be arriving. linger reads it off, within
// bounds, before the close: closing over unread bytes resets the connection,
// and a reset can overtake the answer.
const (
	lingerTime  = 500 * time.Millisecond
	lingerBytes = 8 * MaxBodyBytes
)

func (s *serverConn) linger() {
	if hc, ok := s.nc.(interface{ CloseWrite() error }); ok {
		_ = hc.CloseWrite() // the close that follows reports what matters
	}
	_ = s.nc.SetReadDeadline(time.Now().Add(lingerTime))
	_, _ = io.CopyN(io.Discard, s.br, lingerBytes)
}
