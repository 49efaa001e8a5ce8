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
	"slices"
	"strconv"
	"time"
)

// ServeConn is the server end of the /v1 data plane on one connection: read
// one request — the request line, the head (readHeaders, as Conn reads a
// response's; headers the protocol does not define are skipped unparsed), a
// body of the declared length — hand it to h, send h's answer as one write,
// and again until either side closes. Everything runs on the caller's
// goroutine. ServeConn returns when the connection is done, and closes it.
//
// br, when not nil, is a reader that is already ahead of nc (a hijacked
// connection's): what it has buffered is served first, in order.
//
// h gets the connection's one Request, valid until h returns, Body included:
// the connection reads every body into one buffer, unless h sets Kept, which
// leaves the buffer to whatever still holds it. The Body of the Response h
// returns must stay valid until h is called again or ServeConn returns. A
// Response with Close set ends the connection once it is sent; so do a
// request "Connection: close" and HTTP/1.0.
//
// Framing is refused, never guessed, by the rules Conn holds a response to.
// Transfer-Encoding, Expect, a repeated, signed, non-decimal or over-long
// Content-Length, a header line without a colon or starting with whitespace,
// a line not ended by CRLF or over 4 KiB, more than maxHeaderLines lines, a
// control character in a header value, a body over MaxBodyBytes or shorter
// than declared: each is answered 400 with the JSON error body and
// "Connection: close", h is not called, and the connection is closed. No
// Content-Length is a zero-length body.
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
			if s.req.Kept {
				s.body = nil // held past h: the next body gets a buffer of its own
			}
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
	body []byte // request body buffer, reused unless a handler kept it
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

// readRequest reads one request into s.req. closing reports that the client
// asked for the connection to end after the answer.
func (s *serverConn) readRequest() (closing bool, err error) {
	line, err := readLine(s.br)
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
	http10 := proto[7] == '0' // HTTP/1.0 closes after every response
	req := &s.req
	*req = Request{Path: keep(&s.path, target)}
	if string(method) != http.MethodPost {
		req.Method = string(method)
	}
	var h head
	var peer Peer
	peerUID := false
	if err := readHeaders(s.br, &h, func(name, value []byte) {
		switch string(name) {
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
	}); err != nil {
		return false, err
	}
	req.ContentType = h.contentType
	if peer.Tenant != "" && peerUID {
		p := peer // only a request that carries one pays for it
		req.Peer = &p
	}
	if h.length > MaxBodyBytes {
		return false, refusef("%d-byte body exceeds the %d-byte limit", h.length, MaxBodyBytes)
	}
	if h.length > 0 {
		if int64(cap(s.body)) < h.length {
			// Rounded up to a size class: a body a few bytes longer fits too.
			s.body = slices.Grow([]byte(nil), int(h.length))
		}
		req.Body = s.body[:h.length]
		if _, err = io.ReadFull(s.br, req.Body); err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				return false, err
			}
			return false, refusef("read body: %v", err)
		}
	}
	return h.close || http10, nil
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
