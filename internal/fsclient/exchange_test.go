package fsclient

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"fsencr/internal/fsproto"
)

// rawServer is a raw TCP listener standing in for fsencrd: every accepted
// connection is counted and handed to serve on its own goroutine; serve
// returning closes it.
type rawServer struct {
	base    string
	accepts atomic.Int64
}

func newRawServer(t testing.TB, serve func(nc net.Conn, br *bufio.Reader)) *rawServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &rawServer{base: "http://" + ln.Addr().String()}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			s.accepts.Add(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer nc.Close()
				serve(nc, bufio.NewReader(nc))
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	return s
}

// skipRequest consumes one request without allocating: the stub shares the
// process with testing.AllocsPerRun.
func skipRequest(br *bufio.Reader) error {
	length := 0
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return err
		}
		if v, ok := bytes.CutPrefix(line, []byte("Content-Length: ")); ok {
			for _, d := range bytes.TrimRight(v, "\r\n") {
				length = length*10 + int(d-'0')
			}
		}
		if len(line) == 2 {
			_, err = br.Discard(length)
			return err
		}
	}
}

// answerAll answers every request on every connection with resp.
func answerAll(resp []byte) func(net.Conn, *bufio.Reader) {
	return func(nc net.Conn, br *bufio.Reader) {
		for skipRequest(br) == nil {
			if _, err := nc.Write(resp); err != nil {
				return
			}
		}
	}
}

func octets(body []byte) []byte {
	head := fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Type: %s\r\nContent-Length: %d\r\nX-Request-Id: 00000000000000aa\r\n\r\n",
		fsproto.ContentTypeOctets, len(body))
	return append([]byte(head), body...)
}

// TestClientReadAllocs: a 4 KiB Read costs the client at most 10 heap
// objects (the request JSON, the response buffer, the request id) and
// starts no goroutine — the exchange runs on the caller's.
func TestClientReadAllocs(t *testing.T) {
	page := bytes.Repeat([]byte{'Z'}, 4096)
	s := newRawServer(t, answerAll(octets(page)))
	c := Dial(s.base)
	defer c.Close()
	c.token = "t1"
	req := fsproto.ReadRequest{Name: "f.dat", Offset: 8192, Length: 4096}
	read := func() {
		got, err := c.Read(req)
		if err != nil || len(got) != len(page) {
			t.Fatalf("Read: %d bytes, %v", len(got), err)
		}
	}
	read() // dials
	before := runtime.NumGoroutine()
	allocs := testing.AllocsPerRun(200, read)
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("%d goroutines before 200 round trips, %d after", before, after)
	}
	if allocs > 10 {
		t.Errorf("a 4 KiB Read allocates %.0f objects, want <= 10", allocs)
	}
	if c.LastRequestID != "00000000000000aa" {
		t.Errorf("LastRequestID = %q", c.LastRequestID)
	}
	if n := s.accepts.Load(); n != 1 {
		t.Errorf("%d connections for 200 reads, want 1", n)
	}
}

// TestCloseRedials: Close and Logout drop the connection, and the client
// stays usable — the next call dials again.
func TestCloseRedials(t *testing.T) {
	s := newRawServer(t, answerAll([]byte("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}")))
	c := Dial(s.base)
	step := func(what string, err error, wantConns int64) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if n := s.accepts.Load(); n != wantConns {
			t.Fatalf("after %s: %d connections, want %d", what, n, wantConns)
		}
	}
	step("create", c.Create(fsproto.CreateRequest{Name: "f"}), 1)
	step("chmod on the kept connection", c.Chmod(fsproto.ChmodRequest{Name: "f"}), 1)
	c.Close()
	c.Close() // idempotent
	step("create after Close", c.Create(fsproto.CreateRequest{Name: "g"}), 2)
	step("logout", c.Logout(), 2)
	if c.conn != nil {
		t.Fatal("Logout kept the connection")
	}
	step("create after Logout", c.Create(fsproto.CreateRequest{Name: "h"}), 3)
	c.Close()
}

// TestDialRefusesOtherSchemes: the client speaks plain http only, and says
// so on the first call instead of failing inside a transport.
func TestDialRefusesOtherSchemes(t *testing.T) {
	for _, base := range []string{"https://127.0.0.1:1", "unix:///tmp/fsencrd.sock", "127.0.0.1:9144"} {
		err := Dial(base).Create(fsproto.CreateRequest{Name: "f"})
		if err == nil || !strings.Contains(err.Error(), "base URL") {
			t.Errorf("Dial(%q): err = %v, want the base-URL error", base, err)
		}
	}
}

// FuzzExchangeResponse feeds the client arbitrary server bytes. Whatever
// they are, Read never panics, never returns more than the body bound, and
// never hands back as file bytes anything but a well-formed 200
// octet-stream response that declares its length: the chunked and
// read-to-close seeds are refused.
func FuzzExchangeResponse(f *testing.F) {
	f.Add(octets([]byte("hello")))
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 19\r\n\r\n{\"data\":\"WlpaWg==\"}"))
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n"))
	f.Add([]byte("HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\nContent-Length: 15\r\nX-Fsencr-Queue-Depth: 37\r\n\r\n{\"code\":\"busy\"}"))
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 1048577\r\n\r\n"))
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: -1\r\nContent-Length: 1\r\n\r\n"))
	f.Add([]byte("HTTP/1.0 200 OK\r\nContent-Type: application/octet-stream\r\n\r\nto the close"))
	f.Add([]byte("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nffffffffffffffff\r\n"))
	f.Add([]byte("HTTP/1.1 204 No Content\r\nContent-Type: application/octet-stream\r\n\r\n"))
	f.Add([]byte("\r\n\r\n"))
	f.Add([]byte(nil))

	// One listener for the whole run. Inputs run one at a time, so the
	// connection a client dials is served the input current at its accept.
	var current atomic.Pointer[[]byte]
	s := newRawServer(f, func(nc net.Conn, br *bufio.Reader) {
		resp := *current.Load()
		if skipRequest(br) != nil {
			return
		}
		nc.Write(resp)
		nc.(*net.TCPConn).CloseWrite()
		io.Copy(io.Discard, br) // until the client hangs up
	})
	f.Fuzz(func(t *testing.T, resp []byte) {
		current.Store(&resp)
		c := Dial(s.base)
		defer c.Close()
		got, err := c.Read(fsproto.ReadRequest{Name: "f", Length: 1})
		if err != nil {
			if got != nil {
				t.Fatalf("Read returned %d bytes beside the error %v", len(got), err)
			}
			return
		}
		if len(got) > fsproto.MaxBodyBytes {
			t.Fatalf("Read returned %d bytes, over the %d-byte bound", len(got), fsproto.MaxBodyBytes)
		}
		// Accepted: then the bytes must open with a 200 status line, name the
		// octet-stream type, and hold the payload.
		head, _, _ := bytes.Cut(resp, []byte("\r\n\r\n"))
		head = bytes.ToLower(head)
		if !bytes.HasPrefix(resp, []byte("HTTP/1.")) || len(resp) < 12 || string(resp[9:12]) != "200" ||
			!bytes.Contains(head, []byte(fsproto.ContentTypeOctets)) || !bytes.Contains(head, []byte("\ncontent-length:")) {
			t.Fatalf("Read accepted %q as a payload", resp)
		}
		if len(got) > 0 && bytes.IndexByte(resp, got[0]) < 0 {
			t.Fatalf("Read returned bytes %q the server never sent", got)
		}
	})
}
