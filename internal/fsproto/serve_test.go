package fsproto

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// memConn is a connection whose peer already sent everything it will: the
// loop reads in, and what it answers lands in out.
type memConn struct {
	net.Conn // nil: the loop uses nothing but what is overridden here
	in       *bytes.Reader
	out      bytes.Buffer
	closed   bool
}

func (c *memConn) Read(p []byte) (int, error)      { return c.in.Read(p) }
func (c *memConn) Write(p []byte) (int, error)     { return c.out.Write(p) }
func (c *memConn) Close() error                    { c.closed = true; return nil }
func (c *memConn) SetReadDeadline(time.Time) error { return nil }

// serveBytes runs the loop over in and returns the requests the handler was
// handed (copies, Body included: the loop reuses its Request and its body
// buffer), the bytes answered, and the loop's result. Every request is
// answered 200 with its own body.
func serveBytes(t testing.TB, in []byte) (reqs []Request, out string, err error) {
	t.Helper()
	nc := &memConn{in: bytes.NewReader(in)}
	err = ServeConn(nc, nil, func(req *Request) Response {
		r := *req
		r.Body = bytes.Clone(req.Body)
		if req.Peer != nil {
			p := *req.Peer
			r.Peer = &p
		}
		reqs = append(reqs, r)
		return Response{Status: 200, ContentType: ContentTypeOctets, QueueDepth: -1, Body: req.Body}
	})
	if !nc.closed {
		t.Fatalf("loop returned (%v) without closing the connection", err)
	}
	return reqs, nc.out.String(), err
}

const refusal = "HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\n"

// TestServeConnRefusals: framing the loop will not guess at is answered 400
// with the JSON error body and "Connection: close", the handler is not
// called for it, and the connection is closed — after the requests before it
// on the connection were served.
func TestServeConnRefusals(t *testing.T) {
	const good = "POST /v1/read HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}"
	long := strings.Repeat("a", maxLineBytes)
	var many strings.Builder
	for i := 0; i <= maxHeaderLines; i++ {
		fmt.Fprintf(&many, "X-H%d: v\r\n", i)
	}
	for _, tc := range []struct{ name, in string }{
		{"transfer_encoding", "POST /v1/read HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n"},
		{"length_and_chunked", "POST /v1/read HTTP/1.1\r\nContent-Length: 2\r\nTransfer-Encoding: chunked\r\n\r\n{}"},
		{"expect", "POST /v1/read HTTP/1.1\r\nContent-Length: 2\r\nExpect: 100-continue\r\n\r\n{}"},
		{"repeated_length", "POST /v1/read HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}"},
		{"signed_length", "POST /v1/read HTTP/1.1\r\nContent-Length: +2\r\n\r\n{}"},
		{"negative_length", "POST /v1/read HTTP/1.1\r\nContent-Length: -2\r\n\r\n{}"},
		{"hex_length", "POST /v1/read HTTP/1.1\r\nContent-Length: 0x2\r\n\r\n{}"},
		{"nineteen_digits", "POST /v1/read HTTP/1.1\r\nContent-Length: 1000000000000000000\r\n\r\n{}"},
		{"empty_length", "POST /v1/read HTTP/1.1\r\nContent-Length:\r\n\r\n{}"},
		{"no_colon", "POST /v1/read HTTP/1.1\r\nContent-Length 2\r\n\r\n{}"},
		{"space_before_colon", "POST /v1/read HTTP/1.1\r\nContent-Length : 2\r\n\r\n{}"},
		{"obs_fold", "POST /v1/read HTTP/1.1\r\nX-A: b\r\n c\r\nContent-Length: 2\r\n\r\n{}"},
		{"bare_lf", "POST /v1/read HTTP/1.1\nContent-Length: 2\n\n{}"},
		{"bare_lf_one_line", "POST /v1/read HTTP/1.1\r\nContent-Length: 2\n\r\n{}"},
		{"stray_cr", "POST /v1/read HTTP/1.1\r\nX-A: b\rc\r\nContent-Length: 2\r\n\r\n{}"},
		{"nul_in_value", "POST /v1/read HTTP/1.1\r\nX-Fsencr-Token: t\x001\r\n\r\n"},
		{"long_line", "POST /v1/read HTTP/1.1\r\nX-A: " + long + "\r\n\r\n"},
		{"long_request_line", "POST /" + long + " HTTP/1.1\r\n\r\n"},
		{"too_many_lines", "POST /v1/read HTTP/1.1\r\n" + many.String() + "\r\n"},
		{"oversized_body", fmt.Sprintf("POST /v1/write HTTP/1.1\r\nContent-Length: %d\r\n\r\n", MaxBodyBytes+1)},
		{"short_body", "POST /v1/read HTTP/1.1\r\nContent-Length: 20\r\n\r\n{}"},
		{"http2_preface", "PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n"},
		{"http09", "GET /v1/read\r\n\r\n"},
		{"two_spaces", "POST  /v1/read HTTP/1.1\r\n\r\n"},
		{"no_method", " /v1/read HTTP/1.1\r\n\r\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reqs, out, err := serveBytes(t, []byte(good+tc.in))
			var we *WireError
			if !errors.As(err, &we) || we.Op != "read" {
				t.Fatalf("loop result %v, want a read WireError", err)
			}
			if len(reqs) != 1 {
				t.Fatalf("handler called %d times, want once (the request before the refused one)", len(reqs))
			}
			first, last, ok := strings.Cut(out, "\r\n\r\n{}")
			if !ok || !strings.HasPrefix(first, "HTTP/1.1 200 OK\r\n") || !strings.HasPrefix(last, refusal) ||
				!strings.Contains(last, "\r\nConnection: close\r\n") || !strings.Contains(last, `{"code":"bad_request","message":"fsproto: refused: `) {
				t.Fatalf("answered:\n%q\nwant the first request served, then one 400 bad_request with Connection: close", out)
			}
		})
	}
}

// TestServeConnAccepts: what the grammar admits besides a Conn's own
// requests, and when the loop ends the connection.
func TestServeConnAccepts(t *testing.T) {
	// No Content-Length is a zero-length body; header names match in any
	// case; the last of a repeated protocol header counts; unknown headers
	// are skipped.
	reqs, out, err := serveBytes(t, []byte("POST /v1/logout HTTP/1.1\r\nhost: x\r\nx-fsencr-token: a\r\nX-FSENCR-TOKEN:\tb \r\n"+
		"Accept-Encoding: gzip\r\nConnection: keep-alive\r\n\r\n"+
		"GET /v1/read HTTP/1.1\r\nContent-Length: 2\r\nConnection: Keep-Alive, Close\r\n\r\n{}"+
		"POST /v1/read HTTP/1.1\r\n\r\n"))
	if err != nil {
		t.Fatalf("loop result %v, want nil", err)
	}
	want := []Request{
		{Path: "/v1/logout", Token: "b"},
		{Method: "GET", Path: "/v1/read", Body: []byte("{}")},
	}
	if !reflect.DeepEqual(reqs, want) {
		t.Fatalf("requests %+v\nwant %+v (and none after the Connection: close one)", reqs, want)
	}
	if strings.Count(out, "HTTP/1.1 200 OK\r\n") != 2 || strings.Count(out, "\r\nConnection: close\r\n") != 1 ||
		!strings.HasSuffix(out, "\r\nConnection: close\r\n\r\n{}") {
		t.Fatalf("answered:\n%q\nwant two 200s, the second closing", out)
	}

	// HTTP/1.0 closes after every response.
	if reqs, out, err = serveBytes(t, []byte("POST /v1/read HTTP/1.0\r\n\r\nPOST /v1/read HTTP/1.0\r\n\r\n")); err != nil ||
		len(reqs) != 1 || !strings.Contains(out, "\r\nConnection: close\r\n") {
		t.Fatalf("HTTP/1.0: %d requests served, result %v, answer %q", len(reqs), err, out)
	}

	// A handler's Close ends the connection under the requests behind it;
	// the queue-depth hint goes out only when set.
	nc := &memConn{in: bytes.NewReader([]byte("POST /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\n\r\n"))}
	calls := 0
	err = ServeConn(nc, nil, func(*Request) Response {
		calls++
		return Response{Status: 429, ContentType: ContentTypeJSON, RequestID: "00ab", QueueDepth: 7, Close: true, Body: []byte("{}")}
	})
	wantOut := "HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\nContent-Length: 2\r\n" +
		"X-Request-Id: 00ab\r\nX-Fsencr-Queue-Depth: 7\r\nConnection: close\r\n\r\n{}"
	if err != nil || calls != 1 || nc.out.String() != wantOut || !nc.closed {
		t.Fatalf("closing handler: %d calls, result %v, closed %v, answer\n%q\nwant\n%q", calls, err, nc.closed, nc.out.String(), wantOut)
	}

	// Bytes a hijacked connection's reader already holds are served first.
	nc = &memConn{in: bytes.NewReader([]byte("POST /second HTTP/1.1\r\n\r\n"))}
	ahead := bufio.NewReader(io.MultiReader(strings.NewReader("POST /first HTTP/1.1\r\n\r\n"), nc))
	if _, err := ahead.Peek(8); err != nil {
		t.Fatal(err)
	}
	var paths []string
	if err := ServeConn(nc, ahead, func(req *Request) Response {
		paths = append(paths, req.Path)
		return Response{Status: 200, QueueDepth: -1}
	}); err != nil || !reflect.DeepEqual(paths, []string{"/first", "/second"}) {
		t.Fatalf("hijacked reader: served %v, result %v", paths, err)
	}
}

// TestServeConnBodyBuffer: a connection reads its bodies into one buffer,
// the next body into the last one's bytes, except after a handler marked a
// body Kept: that body keeps its bytes, and the next one gets a buffer of
// its own.
func TestServeConnBodyBuffer(t *testing.T) {
	var in []byte
	for _, body := range []string{"aaaa", "bbb", "cccc", "dddd"} {
		in = fmt.Appendf(in, "POST /v1/write HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	}
	var bodies [][]byte
	err := ServeConn(&memConn{in: bytes.NewReader(in)}, nil, func(req *Request) Response {
		bodies = append(bodies, req.Body)
		req.Kept = len(bodies) == 2
		return Response{Status: 200, QueueDepth: -1}
	})
	if err != nil || len(bodies) != 4 {
		t.Fatalf("served %d bodies, result %v", len(bodies), err)
	}
	if &bodies[0][0] != &bodies[1][0] || &bodies[2][0] != &bodies[3][0] {
		t.Error("a body not kept was not read into the last body's buffer")
	}
	if string(bodies[1]) != "bbb" || &bodies[1][0] == &bodies[2][0] {
		t.Errorf("the kept body reads %q after the next one was read; its buffer was reused", bodies[1])
	}
}

// loopServer serves every accepted connection with the request loop, wrapped
// by wrap first.
func loopServer(t *testing.T, wrap func(net.Conn) net.Conn, h func(*Request) Response) *stubServer {
	t.Helper()
	return newStub(t, func(_ int, nc net.Conn, _ *bufio.Reader) { ServeConn(wrap(nc), nil, h) })
}

// TestServeConnRoundTrip: the loop hands its handler the Request a Conn was
// given, field for field, and the Conn returns the Response the handler
// answered with — the two ends share both structs, and nothing else crosses.
func TestServeConnRoundTrip(t *testing.T) {
	sent := []Request{
		{Path: "/v1/read", ContentType: ContentTypeJSON, Token: "t1", Trace: TraceContext{TraceID: 0xabc, Parent: 3, Sampled: true}, Body: []byte(`{"name":"f"}`)},
		{Path: "/v1/write", ContentType: ContentTypeFrame, Token: "t1", Trace: TraceContext{TraceID: 5}, Body: []byte("\x00\x00\x00\x02{}"), Tail: bytes.Repeat([]byte{0xa5}, 4096)},
		{Path: "/v1/read", ContentType: ContentTypeJSON, Token: "n01-7", Trace: TraceContext{TraceID: 6}, Forwarded: true,
			Peer: &Peer{Tenant: "acme", UID: 1<<32 - 1, Pass: "pw x"}, Body: []byte(`{}`)},
		{Path: "/v1/logout", ContentType: ContentTypeJSON, Trace: TraceContext{TraceID: 7}},
		{Path: "/v1/write", ContentType: ContentTypeFrame, Trace: TraceContext{TraceID: 8}, Body: []byte("\x00\x00\x00\x02{}"), Tail: make([]byte, 2*connBufSize)},
	}
	answers := []Response{
		{Status: 200, ContentType: ContentTypeOctets, RequestID: "0000000000000abc", QueueDepth: -1, Body: bytes.Repeat([]byte{0x5a}, 4096)},
		{Status: 200, ContentType: ContentTypeJSON, RequestID: "0000000000000005", QueueDepth: -1, Body: []byte("{\"ok\":true}\n")},
		{Status: 429, ContentType: ContentTypeJSON, RequestID: "0000000000000006", QueueDepth: 12, Body: []byte(`{"code":"busy"}`)},
		{Status: 404, ContentType: ContentTypeJSON, RequestID: "0000000000000007", QueueDepth: -1, Close: true, Body: []byte(`{"code":"not_found"}`)},
		{Status: 200, ContentType: ContentTypeOctets, RequestID: "0000000000000008", QueueDepth: -1, Body: make([]byte, 3*connBufSize)},
	}
	got := make(chan Request, 1)
	var served atomic.Int64
	s := loopServer(t, func(nc net.Conn) net.Conn { return nc }, func(req *Request) Response {
		got <- *req
		return answers[served.Add(1)-1]
	})
	c := dialStub(t, s)
	for i := range sent {
		resp, err := c.Do(&sent[i])
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		reached := <-got
		if len(resp.Body) == 0 {
			resp.Body = nil
		}
		if !reflect.DeepEqual(resp, answers[i]) {
			t.Errorf("request %d answered %+v\nwant %+v", i, resp, answers[i])
		}
		want := sent[i]
		want.Body, want.Tail = append(append([]byte(nil), want.Body...), want.Tail...), nil
		if !reflect.DeepEqual(reached, want) {
			t.Errorf("request %d reached the handler as %+v\nwant %+v", i, reached, want)
		}
	}
	// The fourth answer closed the connection; the fifth request redialled.
	if n := s.accepts.Load(); n != 2 {
		t.Errorf("%d connections, want 2", n)
	}
}

// countConn counts the Read calls that returned (the one an idle end is
// parked in does not count) and the Write calls made (the peer can act on a
// write before the writer gets to count it).
type countConn struct {
	net.Conn
	reads, writes atomic.Int64
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.reads.Add(1)
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestExchangeSyscalls: a 4 KiB read costs each end one read and one write —
// the request and the page response each fit one buffer, and each leaves in
// one write. (The server package's test of the same name counts the loop's
// end behind net/http's Hijack.)
func TestExchangeSyscalls(t *testing.T) {
	const rounds = 50
	page := bytes.Repeat([]byte{0x5a}, 4096)
	conns := make(chan *countConn, 1)
	s := loopServer(t, func(nc net.Conn) net.Conn {
		cc := &countConn{Conn: nc}
		conns <- cc
		return cc
	}, func(*Request) Response {
		return Response{Status: 200, ContentType: ContentTypeOctets, RequestID: "00c3a4d2b1e90f77", QueueDepth: -1, Body: page}
	})
	c := dialStub(t, s)
	req := Request{Path: "/v1/read", ContentType: ContentTypeJSON, Token: "n0123abcd-17", Trace: TraceContext{TraceID: 9, Sampled: true},
		Body: []byte(`{"name":"obj0","offset":1048576,"length":4096}`)}
	if _, err := c.Do(&req); err != nil {
		t.Fatal(err)
	}
	client, server := &countConn{Conn: c.nc}, <-conns
	c.nc = client
	c.br.Reset(client)
	server.reads.Store(0)
	server.writes.Store(0)
	for i := 0; i < rounds; i++ {
		if resp, err := c.Do(&req); err != nil || !bytes.Equal(resp.Body, page) {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	for _, end := range []struct {
		name string
		c    *countConn
	}{{"client", client}, {"server", server}} {
		if r, w := end.c.reads.Load(), end.c.writes.Load(); r != rounds || w != rounds {
			t.Errorf("%s: %d reads and %d writes for %d page reads, want one of each per request", end.name, r, w, rounds)
		}
	}
}

// FuzzRequestHead feeds arbitrary bytes to the loop's parser. It never
// panics and never reads a body past MaxBodyBytes; whatever it does, the
// connection ends closed, and a refusal is answered 400 with "Connection:
// close" last. Every request it accepts is inside the grammar a Conn emits:
// sent on by buildHead and parsed again, it is the same request.
func FuzzRequestHead(f *testing.F) {
	f.Add([]byte("POST /v1/read HTTP/1.1\r\nHost: h\r\nContent-Type: application/json\r\nContent-Length: 2\r\n" +
		"X-Fsencr-Token: t1\r\nX-Fsencr-Trace: 00c3a4d2b1e90f77-1f-1\r\n\r\n{}"))
	f.Add([]byte("POST /v1/write HTTP/1.1\r\nContent-Type: application/x-fsencr-frame\r\nContent-Length: 9\r\nX-Fsencr-Forwarded: 1\r\n" +
		"X-Fsencr-Peer-Tenant: acme\r\nX-Fsencr-Peer-Uid: 1001\r\nX-Fsencr-Peer-Pass: pw x\r\n\r\n\x00\x00\x00\x02{}abc"))
	f.Add([]byte("GET /metrics HTTP/1.0\r\nConnection: close\r\n\r\n"))
	f.Add([]byte("POST /v1/read HTTP/1.1\r\nContent-Length: 2\r\nTransfer-Encoding: chunked\r\n\r\n{}"))
	f.Add([]byte("POST /v1/read HTTP/1.1\r\nContent-Length: 1048577\r\n\r\n"))
	f.Add([]byte("POST /v1/read HTTP/1.1\r\n folded: x\r\n\r\nPOST /v1/read HTTP/1.1\nA: b\n\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		reqs, out, err := serveBytes(t, in)
		var we *WireError
		if errors.As(err, &we) && we.Op == "read" {
			var ge grammarError
			if errors.As(err, &ge) {
				// The literal cannot sit inside the refusal's own body (JSON
				// escapes CR and LF), so the last one starts the last answer.
				if i := strings.LastIndex(out, refusal); i < 0 || !strings.Contains(out[i:], "\r\nConnection: close\r\n") {
					t.Fatalf("refusal %v answered %q", err, out)
				}
			}
		} else if err != nil {
			t.Fatalf("loop over a connection that takes every write: %v", err)
		}
		for _, req := range reqs {
			if len(req.Body) > MaxBodyBytes {
				t.Fatalf("%d-byte body accepted", len(req.Body))
			}
			c := &Conn{host: "h"}
			req.Method = ""
			if err := c.buildHead(&req); err != nil {
				t.Fatalf("accepted request %+v is outside the client's grammar: %v", req, err)
			}
			again, _, err := serveBytes(t, append(c.head, req.Body...))
			if err != nil || len(again) != 1 || !reflect.DeepEqual(again[0], req) {
				t.Fatalf("request %+v sent on as\n%q\ncame back as %+v (%v)", req, c.head, again, err)
			}
		}
	})
}

// FuzzHeadGrammar feeds the same header lines to both ends: under a status
// line to Conn's readHead, under a request line to the request loop's
// readRequest. Both refuse, or both accept with the same length, closing and
// content type. One rule differs by direction: a head without Content-Length
// is a zero-length request but a refused response, which is then the same
// head a 204 is accepted with.
func FuzzHeadGrammar(f *testing.F) {
	for _, seed := range []string{
		"Content-Type: application/json\r\nContent-Length: 2\r\n\r\n{}",
		"content-length: 0\r\nConnection: keep-alive, Close\r\nX-Request-Id: 00aa\r\nX-Fsencr-Token: t1\r\n\r\n",
		"Content-Type: text/plain\r\n\r\n",
		"Content-Length: 0\r\nTransfer-Encoding: chunked\r\n\r\n",
		"Content-Length: 2\r\nExpect: 100-continue\r\n\r\n{}",
		"Content-Length: 0\nX-A: b\n\n",
		"Content-Length: 0\r\nX-A: b\x01c\r\n\r\n",
		"Content-Length: 1\r\nContent-Length: 1\r\n\r\na",
		"Content-Length: 1048577\r\n\r\n",
		" folded: x\r\nContent-Length: 0\r\n\r\n",
	} {
		f.Add([]byte(seed))
	}
	body := make([]byte, MaxBodyBytes) // what the server reads past the head
	f.Fuzz(func(t *testing.T, hdrs []byte) {
		client := func(status string) (Response, int64, error) {
			c := &Conn{br: bufio.NewReaderSize(io.MultiReader(strings.NewReader(status), bytes.NewReader(hdrs)), connBufSize)}
			var resp Response
			length, err := c.readHead(&resp)
			if err == nil && length > MaxBodyBytes {
				err = errors.New("over the body bound") // ReadBody's refusal, before the body
			}
			return resp, length, err
		}
		resp, length, cerr := client("HTTP/1.1 200 OK\r\n")
		s := serverConn{br: bufio.NewReaderSize(io.MultiReader(strings.NewReader("POST /v1/read HTTP/1.1\r\n"),
			bytes.NewReader(hdrs), bytes.NewReader(body)), connBufSize)}
		closing, serr := s.readRequest()
		if serr == nil && cerr != nil && strings.Contains(cerr.Error(), "without Content-Length") {
			resp, length, cerr = client("HTTP/1.1 204 No Content\r\n")
		}
		switch {
		case (cerr == nil) != (serr == nil):
			t.Fatalf("head %q: client %v, server %v", hdrs, cerr, serr)
		case cerr != nil:
		case length != int64(len(s.req.Body)) || resp.Close != closing || resp.ContentType != s.req.ContentType:
			t.Fatalf("head %q: client length %d close %v type %q; server length %d close %v type %q",
				hdrs, length, resp.Close, resp.ContentType, len(s.req.Body), closing, s.req.ContentType)
		}
	})
}
