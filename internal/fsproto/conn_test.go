package fsproto

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stubServer is a raw TCP listener: the bytes on the wire are the test's.
// Every accepted connection is counted and handed, with its 1-based
// number, to serve on its own goroutine; serve returning closes it.
type stubServer struct {
	base    string
	accepts atomic.Int64
}

func newStub(t *testing.T, serve func(n int, nc net.Conn, br *bufio.Reader)) *stubServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &stubServer{base: "http://" + ln.Addr().String()}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			n := int(s.accepts.Add(1))
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer nc.Close()
				serve(n, nc, bufio.NewReader(nc))
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	return s
}

// readRequest reads one request — head, then Content-Length bytes of body —
// and returns its raw bytes. io.EOF: the client closed between requests.
func readRequest(br *bufio.Reader) ([]byte, error) {
	var raw []byte
	length := 0
	for {
		line, err := br.ReadString('\n')
		raw = append(raw, line...)
		if err != nil {
			return raw, err
		}
		if v, ok := strings.CutPrefix(line, "Content-Length: "); ok {
			length, _ = strconv.Atoi(strings.TrimSpace(v))
		}
		if line == "\r\n" {
			break
		}
	}
	body := make([]byte, length)
	_, err := io.ReadFull(br, body)
	return append(raw, body...), err
}

// answerEach serves every request on a connection with respond's bytes for
// (connection number, request number on it); an empty answer closes.
func answerEach(respond func(conn, req int) string) func(int, net.Conn, *bufio.Reader) {
	return func(n int, nc net.Conn, br *bufio.Reader) {
		for i := 1; ; i++ {
			if _, err := readRequest(br); err != nil {
				return
			}
			out := respond(n, i)
			if out == "" {
				return
			}
			if _, err := io.WriteString(nc, out); err != nil {
				return
			}
		}
	}
}

func dialStub(t *testing.T, s *stubServer) *Conn {
	t.Helper()
	c, err := Dial(s.base)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

var probe = Request{Path: "/v1/read", ContentType: ContentTypeJSON, Body: []byte(`{}`), Trace: TraceContext{TraceID: 1}}

const okEmpty = "HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n"

// TestConnRequestBytes pins what a request looks like on the wire: one
// Host, the exact Content-Length of Body+Tail, no Transfer-Encoding, and
// only the protocol's own headers.
func TestConnRequestBytes(t *testing.T) {
	got := make(chan []byte, 2)
	s := newStub(t, func(_ int, nc net.Conn, br *bufio.Reader) {
		for {
			raw, err := readRequest(br)
			if err != nil {
				return
			}
			got <- raw
			io.WriteString(nc, okEmpty)
		}
	})
	c, err := Dial(s.base + "/pre")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	host := strings.TrimPrefix(s.base, "http://")

	frame := AppendFrame(nil, []byte(`{"name":"f"}`), nil)
	if _, err := c.Do(&Request{
		Path: "/v1/write", ContentType: ContentTypeFrame, Token: "t7",
		Trace: TraceContext{TraceID: 0xc3a4d2b1e90f77, Parent: 0x1f, Sampled: true},
		Body:  frame, Tail: []byte("payload"),
	}); err != nil {
		t.Fatal(err)
	}
	want := "POST /pre/v1/write HTTP/1.1\r\n" +
		"Host: " + host + "\r\n" +
		"Content-Type: application/x-fsencr-frame\r\n" +
		"Content-Length: 23\r\n" +
		"X-Fsencr-Token: t7\r\n" +
		"X-Fsencr-Trace: 00c3a4d2b1e90f77-1f-1\r\n" +
		"\r\n" +
		"\x00\x00\x00\x0c" + `{"name":"f"}` + "payload"
	if raw := <-got; string(raw) != want {
		t.Errorf("framed write on the wire:\n%q\nwant:\n%q", raw, want)
	}

	// The forward hop's form: no token of its own is required, the marker
	// and the peer identity ride along.
	if _, err := c.Do(&Request{
		Path: "/v1/read", ContentType: ContentTypeJSON, Trace: TraceContext{TraceID: 2},
		Forwarded: true, Peer: &Peer{Tenant: "acme", UID: 1001, Pass: "pw x"}, Body: []byte(`{}`),
	}); err != nil {
		t.Fatal(err)
	}
	want = "POST /pre/v1/read HTTP/1.1\r\n" +
		"Host: " + host + "\r\n" +
		"Content-Type: application/json\r\n" +
		"Content-Length: 2\r\n" +
		"X-Fsencr-Trace: 0000000000000002-0-0\r\n" +
		"X-Fsencr-Forwarded: 1\r\n" +
		"X-Fsencr-Peer-Tenant: acme\r\n" +
		"X-Fsencr-Peer-Uid: 1001\r\n" +
		"X-Fsencr-Peer-Pass: pw x\r\n" +
		"\r\n{}"
	if raw := <-got; string(raw) != want {
		t.Errorf("forwarded read on the wire:\n%q\nwant:\n%q", raw, want)
	}
	if n := s.accepts.Load(); n != 1 {
		t.Errorf("%d connections for two requests, want 1", n)
	}
}

// TestTraceContextWireForm: the allocation-free renderer writes exactly
// what the header always carried, and ParseTraceContext reads it back.
func TestTraceContextWireForm(t *testing.T) {
	for _, tc := range []TraceContext{
		{TraceID: 1},
		{TraceID: 0xc3a4d2b1e90f77, Parent: 0xabcdef, Sampled: true},
		{TraceID: ^uint64(0), Parent: ^uint64(0), Sampled: true},
	} {
		flag := 0
		if tc.Sampled {
			flag = 1
		}
		want := fmt.Sprintf("%016x-%x-%d", tc.TraceID, tc.Parent, flag)
		if got := tc.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
		if back, ok := ParseTraceContext(tc.String()); !ok || back != tc {
			t.Errorf("round trip of %+v: %+v, %v", tc, back, ok)
		}
	}
}

// TestConnBodies: declared-length bodies arrive whole on one keep-alive
// connection, header names match in any case, and unknown headers are
// skipped. A chunked answer is refused before its body and costs the
// connection.
func TestConnBodies(t *testing.T) {
	s := newStub(t, answerEach(func(conn, req int) string {
		switch {
		case conn > 1:
			return okEmpty
		case req == 1:
			return "HTTP/1.1 200 OK\r\ncontent-type: application/octet-stream\r\nCONTENT-LENGTH: 5\r\n" +
				"X-Request-Id: 00000000000000aa\r\nDate: today\r\n\r\nhello"
		case req == 2:
			return "HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\n" +
				"X-Fsencr-Queue-Depth: 37\r\ncontent-Length: 15\r\n\r\n{\"code\":\"busy\"}"
		case req == 3:
			return "HTTP/1.1 204 No Content\r\n\r\n"
		case req == 4:
			return "HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\nX-Fsencr-Queue-Depth: many\r\n\r\n"
		}
		return "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n"
	}))
	c := dialStub(t, s)

	resp, err := c.Do(&probe)
	if err != nil || resp.Status != 200 || string(resp.Body) != "hello" ||
		resp.ContentType != ContentTypeOctets || resp.RequestID != "00000000000000aa" || resp.QueueDepth != -1 {
		t.Fatalf("declared body: %+v, %v", resp, err)
	}
	resp, err = c.Do(&probe)
	if err != nil || resp.Status != 429 || string(resp.Body) != `{"code":"busy"}` ||
		resp.ContentType != ContentTypeJSON || resp.QueueDepth != 37 {
		t.Fatalf("error body: %+v (%q), %v", resp, resp.Body, err)
	}
	if resp, err = c.Do(&probe); err != nil || resp.Status != 204 || len(resp.Body) != 0 {
		t.Fatalf("204: %+v, %v", resp, err)
	}
	if resp, err = c.Do(&probe); err != nil || resp.Status != 404 || resp.QueueDepth != -1 {
		t.Fatalf("malformed depth hint must read as absent: %+v, %v", resp, err)
	}
	if n := s.accepts.Load(); n != 1 {
		t.Fatalf("%d connections for four keep-alive exchanges, want 1", n)
	}
	var we *WireError
	if resp, err = c.Do(&probe); !errors.As(err, &we) || we.Op != "read" || len(resp.Body) != 0 {
		t.Fatalf("chunked body: %q, %v; want a read WireError and no body", resp.Body, err)
	}
	if _, err = c.Do(&probe); err != nil {
		t.Fatalf("exchange after the chunked answer: %v", err)
	}
	if n := s.accepts.Load(); n != 2 {
		t.Fatalf("%d connections, want 2: a refused chunked answer must drop its connection", n)
	}
}

// TestConnCloseRedials: after "Connection: close" or an HTTP/1.0 answer the
// next Do dials again — and is not taken for a resend. A body that would run
// to the close is refused, and costs the connection too.
func TestConnCloseRedials(t *testing.T) {
	s := newStub(t, func(n int, nc net.Conn, br *bufio.Reader) {
		if _, err := readRequest(br); err != nil {
			return
		}
		switch n {
		case 1:
			io.WriteString(nc, "HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 1\r\n\r\na")
		case 2:
			io.WriteString(nc, "HTTP/1.0 200 OK\r\nContent-Length: 1\r\n\r\nb")
		case 3:
			io.WriteString(nc, "HTTP/1.1 200 OK\r\n\r\nto the close")
		default:
			io.WriteString(nc, "HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\nd")
		}
		readRequest(br) // stay open: the client must not come back here
	})
	c := dialStub(t, s)
	for i, want := range []string{"a", "b", "", "d"} {
		resp, err := c.Do(&probe)
		if want == "" {
			var we *WireError
			if !errors.As(err, &we) || we.Op != "read" || !strings.Contains(err.Error(), "Content-Length") {
				t.Fatalf("exchange %d: %q, %v; want a read WireError naming the missing Content-Length", i+1, resp.Body, err)
			}
		} else if err != nil || string(resp.Body) != want {
			t.Fatalf("exchange %d: %q, %v; want %q", i+1, resp.Body, err, want)
		}
		if n := s.accepts.Load(); n != int64(i+1) {
			t.Fatalf("after exchange %d: %d connections, want %d", i+1, n, i+1)
		}
	}
}

// TestConnResend pins the one transparent resend: a kept connection the
// server closed while idle. Exactly one — when the fresh connection is
// closed on it too, the error comes back.
func TestConnResend(t *testing.T) {
	var served atomic.Int64
	s := newStub(t, func(n int, nc net.Conn, br *bufio.Reader) {
		if n == 3 {
			return // closes at once, request unread
		}
		if _, err := readRequest(br); err != nil {
			return
		}
		served.Add(1)
		io.WriteString(nc, okEmpty)
		// One request per connection, then the server closes it idle.
	})
	c := dialStub(t, s)
	if _, err := c.Do(&probe); err != nil {
		t.Fatal(err)
	}
	waitClosed(t, c)
	// The kept connection is dead; the resend on connection 2 succeeds and
	// the caller sees nothing of it.
	if _, err := c.Do(&probe); err != nil {
		t.Fatalf("Do over an idle-closed connection: %v", err)
	}
	if a, n := s.accepts.Load(), served.Load(); a != 2 || n != 2 {
		t.Fatalf("%d connections, %d requests served; want 2 and 2", a, n)
	}
	waitClosed(t, c)
	// Connection 2 is dead as well; the resend dials connection 3, which
	// closes without an answer. That one was dialled by this Do: an error,
	// and no fourth connection.
	_, err := c.Do(&probe)
	var we *WireError
	if !errors.As(err, &we) {
		t.Fatalf("Do with the resend failing too: err = %v, want a WireError", err)
	}
	if a, n := s.accepts.Load(), served.Load(); a != 3 || n != 2 {
		t.Fatalf("%d connections, %d requests served; want 3 and 2", a, n)
	}
}

// waitClosed blocks until the peer's close of c's kept connection has
// arrived, so the next write meets it.
func waitClosed(t *testing.T, c *Conn) {
	t.Helper()
	c.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.br.Peek(1); err != io.EOF {
		t.Fatalf("waiting for the server's close: %v", err)
	}
	c.nc.SetReadDeadline(time.Time{})
}

// TestConnNoResend: a request is never sent twice once a response byte was
// read, on a connection the Do dialled itself, or when the deadline — not
// a close — ended the wait. A write is not idempotent.
func TestConnNoResend(t *testing.T) {
	for _, tc := range []struct {
		name string
		// second is what the server does with the second request of a
		// connection, after answering the first.
		second  string
		hang    bool
		wantErr string
	}{
		{name: "EOF mid-head", second: "HTTP/1.1 200 OK\r\nContent-", wantErr: "EOF"},
		{name: "EOF after one byte", second: "H", wantErr: "EOF"},
		{name: "EOF mid-body", second: "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc", wantErr: "EOF"},
		// Refused at the head, before the chunk: still after a response byte.
		{name: "EOF mid-chunk", second: "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nab", wantErr: "transfer-encoding"},
		{name: "deadline", hang: true, wantErr: "timeout"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var requests atomic.Int64
			release := make(chan struct{})
			s := newStub(t, func(_ int, nc net.Conn, br *bufio.Reader) {
				for i := 1; ; i++ {
					if _, err := readRequest(br); err != nil {
						return
					}
					requests.Add(1)
					switch {
					case i == 1:
						io.WriteString(nc, okEmpty)
					case tc.hang:
						<-release
						return
					default:
						io.WriteString(nc, tc.second)
						return
					}
				}
			})
			defer close(release)
			c := dialStub(t, s)
			if _, err := c.Do(&probe); err != nil {
				t.Fatal(err)
			}
			if tc.hang {
				c.SetDeadline(time.Now().Add(100 * time.Millisecond))
			}
			_, err := c.Do(&probe)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want one naming %q", err, tc.wantErr)
			}
			if tc.hang && !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("err = %v, want the deadline error", err)
			}
			if a, n := s.accepts.Load(), requests.Load(); a != 1 || n != 2 {
				t.Fatalf("%d connections, %d requests; want 1 and 2 (no resend)", a, n)
			}
		})
	}

	t.Run("fresh connection", func(t *testing.T) {
		s := newStub(t, func(_ int, nc net.Conn, br *bufio.Reader) { readRequest(br) })
		c := dialStub(t, s)
		var we *WireError
		if _, err := c.Do(&probe); !errors.As(err, &we) {
			t.Fatalf("err = %v, want a WireError", err)
		}
		if a := s.accepts.Load(); a != 1 {
			t.Fatalf("%d connections, want 1", a)
		}
	})
}

// TestConnBodyLimit: a declared body over MaxBodyBytes is refused with
// ReadBody's limit error before a byte of it is allocated for, one exactly
// at the bound is delivered, and a body without a declared length is
// refused at the head however long it runs. Each refusal costs the
// connection.
func TestConnBodyLimit(t *testing.T) {
	chunk := strings.Repeat("Z", 64<<10)
	s := newStub(t, func(n int, nc net.Conn, br *bufio.Reader) {
		if _, err := readRequest(br); err != nil {
			return
		}
		switch n {
		case 1:
			fmt.Fprintf(nc, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", MaxBodyBytes+1)
		case 2:
			io.WriteString(nc, "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n")
			for sent := 0; sent <= MaxBodyBytes; sent += len(chunk) {
				if _, err := fmt.Fprintf(nc, "%x\r\n%s\r\n", len(chunk), chunk); err != nil {
					return
				}
			}
			io.WriteString(nc, "0\r\n\r\n")
		case 3:
			io.WriteString(nc, "HTTP/1.1 200 OK\r\n\r\n")
			for sent := 0; sent <= MaxBodyBytes; sent += len(chunk) {
				if _, err := io.WriteString(nc, chunk); err != nil {
					return
				}
			}
		case 4:
			fmt.Fprintf(nc, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", MaxBodyBytes)
			for sent := 0; sent < MaxBodyBytes; sent += len(chunk) {
				io.WriteString(nc, chunk)
			}
		}
	})
	c := dialStub(t, s)
	resp, err := c.Do(&probe)
	var we *WireError
	if err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("declared body over the bound: %d bytes, err %v; want the limit error", len(resp.Body), err)
	}
	if errors.As(err, &we) {
		t.Fatal("the limit error is a WireError; a retry would fetch the same body again")
	}
	for _, name := range []string{"chunked", "to the close"} {
		if resp, err := c.Do(&probe); !errors.As(err, &we) || we.Op != "read" || len(resp.Body) != 0 {
			t.Fatalf("%s body over the bound: %d bytes, err %v; want a read WireError before the body", name, len(resp.Body), err)
		}
	}
	if resp, err := c.Do(&probe); err != nil || len(resp.Body) != MaxBodyBytes {
		t.Fatalf("body at the bound: %d bytes, err %v", len(resp.Body), err)
	}
	if a := s.accepts.Load(); a != 4 {
		t.Fatalf("%d connections, want 4: every refused body must drop its connection", a)
	}
}

// TestConnMalformedHead: a response head outside the grammar is a
// WireError and costs the connection — nothing after it can be trusted to
// be a response boundary.
func TestConnMalformedHead(t *testing.T) {
	manyHeaders := "HTTP/1.1 200 OK\r\n" + strings.Repeat("X-Pad: 1\r\n", maxHeaderLines+1) + "Content-Length: 0\r\n\r\n"
	heads := []struct{ name, head string }{
		{"over-long header line", "HTTP/1.1 200 OK\r\nX-Pad: " + strings.Repeat("a", 5000) + "\r\nContent-Length: 0\r\n\r\n"},
		{"over-long status line", "HTTP/1.1 200 " + strings.Repeat("a", 5000) + "\r\n\r\n"},
		{"too many headers", manyHeaders},
		{"not HTTP", "ICY 200 OK\r\nContent-Length: 0\r\n\r\n"},
		{"HTTP/2", "HTTP/2 200 OK\r\nContent-Length: 0\r\n\r\n"},
		{"HTTP/1.2", "HTTP/1.2 200 OK\r\nContent-Length: 0\r\n\r\n"},
		{"short status", "HTTP/1.1 20 OK\r\nContent-Length: 0\r\n\r\n"},
		{"long status", "HTTP/1.1 2000 OK\r\nContent-Length: 0\r\n\r\n"},
		{"signed status", "HTTP/1.1 +20 OK\r\nContent-Length: 0\r\n\r\n"},
		{"informational", "HTTP/1.1 100 Continue\r\n\r\n"},
		{"bare newline", "\n"},
		{"negative Content-Length", "HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n"},
		{"signed Content-Length", "HTTP/1.1 200 OK\r\nContent-Length: +1\r\n\r\na"},
		{"hex Content-Length", "HTTP/1.1 200 OK\r\nContent-Length: 0x1\r\n\r\na"},
		{"huge Content-Length", "HTTP/1.1 200 OK\r\nContent-Length: 99999999999999999999\r\n\r\n"},
		{"empty Content-Length", "HTTP/1.1 200 OK\r\nContent-Length:\r\n\r\n"},
		{"duplicate Content-Length", "HTTP/1.1 200 OK\r\nContent-Length: 1\r\nContent-Length: 1\r\n\r\na"},
		{"length and chunked", "HTTP/1.1 200 OK\r\nContent-Length: 1\r\nTransfer-Encoding: chunked\r\n\r\n1\r\na\r\n0\r\n\r\n"},
		{"unsupported transfer coding", "HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip, chunked\r\n\r\n"},
		{"header without colon", "HTTP/1.1 200 OK\r\nContent-Length 0\r\n\r\n"},
		{"header without name", "HTTP/1.1 200 OK\r\n: 0\r\n\r\n"},
		{"no Content-Length", "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n{}"},
		{"chunked", "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n"},
		{"bare LF", "HTTP/1.1 200 OK\nContent-Length: 0\n\n"},
		{"bare LF ending one header", "HTTP/1.1 200 OK\r\nContent-Length: 0\n\r\n"},
		{"control character in a value", "HTTP/1.1 200 OK\r\nX-Request-Id: 00\x0100\r\nContent-Length: 0\r\n\r\n"},
	}
	s := newStub(t, func(n int, nc net.Conn, br *bufio.Reader) {
		if _, err := readRequest(br); err != nil {
			return
		}
		if n%2 == 1 {
			io.WriteString(nc, heads[n/2].head)
			readRequest(br) // hold the connection open: dropping it is the client's job
			return
		}
		io.WriteString(nc, okEmpty)
	})
	c := dialStub(t, s)
	for i, h := range heads {
		_, err := c.Do(&probe)
		var we *WireError
		if !errors.As(err, &we) || we.Op != "read" {
			t.Fatalf("%s: err = %v, want a read WireError", h.name, err)
		}
		// The next exchange runs on a new connection.
		if _, err := c.Do(&probe); err != nil {
			t.Fatalf("exchange after %s: %v", h.name, err)
		}
		if a := s.accepts.Load(); a != int64(2*i+2) {
			t.Fatalf("after %s: %d connections, want %d", h.name, a, 2*i+2)
		}
		c.Close()
	}
}

// TestConnPipelinedBytesDropConnection: bytes the server sent beyond the
// response are never read as the head of the next one.
func TestConnPipelinedBytesDropConnection(t *testing.T) {
	s := newStub(t, answerEach(func(conn, _ int) string {
		if conn == 1 {
			return "HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\naHTTP/1.1 200 OK\r\nContent-Length: 6\r\n\r\nforged"
		}
		return "HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nreal"
	}))
	c := dialStub(t, s)
	if resp, err := c.Do(&probe); err != nil || string(resp.Body) != "a" {
		t.Fatalf("first exchange: %q, %v", resp.Body, err)
	}
	if resp, err := c.Do(&probe); err != nil || string(resp.Body) != "real" {
		t.Fatalf("second exchange: %q, %v; want the new connection's answer", resp.Body, err)
	}
}

// TestDialRefusals: only plain http is spoken, and a request that could
// not be one well-formed head is refused before a byte is written.
func TestDialRefusals(t *testing.T) {
	for _, base := range []string{
		"https://127.0.0.1:1", "unix:///tmp/s", "127.0.0.1:9144", "http://", "",
		"http://h/?q=1", "http://h/#f", "http://h\r\nX: y/",
	} {
		if c, err := Dial(base); err == nil {
			t.Errorf("Dial(%q) = %+v, want an error", base, c)
		}
	}
	s := newStub(t, answerEach(func(_, _ int) string { return okEmpty }))
	c := dialStub(t, s)
	for name, req := range map[string]Request{
		"token":   {Path: "/v1/read", ContentType: ContentTypeJSON, Token: "t1\r\nX-Fsencr-Forwarded: 1"},
		"path":    {Path: "/v1/read HTTP/1.1\r\nX: y", ContentType: ContentTypeJSON},
		"type":    {Path: "/v1/read", ContentType: "a\nb"},
		"tenant":  {Path: "/v1/read", ContentType: ContentTypeJSON, Peer: &Peer{Tenant: "a\rb"}},
		"passkey": {Path: "/v1/read", ContentType: ContentTypeJSON, Peer: &Peer{Tenant: "a", Pass: "p\x00"}},
	} {
		if _, err := c.Do(&req); err == nil {
			t.Errorf("a control character in the %s was sent", name)
		}
	}
	if a := s.accepts.Load(); a != 0 {
		t.Fatalf("%d connections made for refused requests, want 0", a)
	}
}
