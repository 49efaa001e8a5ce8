package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fsencr/internal/core"
	"fsencr/internal/fsclient"
	"fsencr/internal/fsproto"
	"fsencr/internal/server"
)

// wirePattern fills n bytes with a position-dependent pattern.
func wirePattern(n int, salt byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7) ^ byte(i>>8) ^ salt
	}
	return b
}

// rawPost is one request below the typed client.
func rawPost(t *testing.T, url, ctype, token string, body []byte) *http.Response {
	t.Helper()
	hr, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", ctype)
	hr.Header.Set(fsproto.TokenHeader, token)
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// loginToken opens a session below the typed client and returns its token.
func loginToken(t *testing.T, base, tenant string) string {
	t.Helper()
	resp := rawPost(t, base+"/v1/login", fsproto.ContentTypeJSON, "",
		[]byte(`{"tenant":"`+tenant+`","uid":1,"passphrase":"pw"}`))
	var lr fsproto.LoginResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil || lr.Token == "" {
		t.Fatalf("raw login: status %d, err %v", resp.StatusCode, err)
	}
	return lr.Token
}

// TestWirePayloadRoundTrip drives the raw-payload wire path over real HTTP:
// framed writes and raw read responses at payload sizes 0, 1, one page and
// the largest frame the body bound admits, the same for KV values, the
// response headers a raw payload goes out under, and the plain-JSON write
// form the frame did not replace.
func TestWirePayloadRoundTrip(t *testing.T) {
	_, hs := traceService(t)
	cl := fsclient.Dial(hs.URL)
	if err := cl.Login("acme", 1, "pw"); err != nil {
		t.Fatalf("login: %v", err)
	}
	if err := cl.Create(fsproto.CreateRequest{Name: "f.dat", Perm: 0600, Size: 2 << 20, Encrypted: true}); err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := cl.KVCreate(fsproto.KVCreateRequest{Store: "kv", Size: 1 << 20}); err != nil {
		t.Fatalf("kv create: %v", err)
	}

	// The largest payload whose frame is exactly the body bound.
	meta, err := json.Marshal(fsproto.WriteRequest{Name: "f.dat", Offset: 4096})
	if err != nil {
		t.Fatal(err)
	}
	largest := fsproto.MaxBodyBytes - fsproto.FrameHeaderLen - len(meta)
	for i, n := range []int{0, 1, 4096, largest} {
		want := wirePattern(n, byte(i))
		if err := cl.Write(fsproto.WriteRequest{Name: "f.dat", Offset: 4096, Data: want}); err != nil {
			t.Fatalf("write %d bytes: %v", n, err)
		}
		got, err := cl.Read(fsproto.ReadRequest{Name: "f.dat", Offset: 4096, Length: n})
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("read %d bytes back: err %v, equal %v", n, err, bytes.Equal(got, want))
		}
	}
	if err := cl.Write(fsproto.WriteRequest{Name: "f.dat", Offset: 4096, Data: make([]byte, largest+1)}); !fsclient.IsCode(err, fsproto.CodeBadRequest) {
		t.Fatalf("frame one byte over the body bound: %v, want bad_request", err)
	}
	// An offset that wraps past 2^64 when the length is added is beyond EOF.
	if err := cl.Write(fsproto.WriteRequest{Name: "f.dat", Offset: ^uint64(0) - 2, Data: make([]byte, 7)}); !fsclient.IsCode(err, fsproto.CodeBadRequest) {
		t.Fatalf("write at a wrapping offset: %v, want bad_request", err)
	}
	if _, err := cl.Read(fsproto.ReadRequest{Name: "f.dat", Offset: ^uint64(0) - 2, Length: 7}); !fsclient.IsCode(err, fsproto.CodeBadRequest) {
		t.Fatalf("read at a wrapping offset: %v, want bad_request", err)
	}
	for i, n := range []int{0, 1, 4096} {
		want := wirePattern(n, byte(0x40+i))
		if err := cl.KVPut(fsproto.KVPutRequest{Store: "kv", Key: uint64(i), Value: want}); err != nil {
			t.Fatalf("kv put %d bytes: %v", n, err)
		}
		got, err := cl.KVGet(fsproto.KVGetRequest{Store: "kv", Key: uint64(i)})
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("kv get %d bytes back: err %v, equal %v", n, err, bytes.Equal(got, want))
		}
	}

	// Below the client: a plain-JSON write with the payload inline (base64)
	// still lands, and the read answers raw bytes under an explicit length.
	token := loginToken(t, hs.URL, "acme")
	inline := wirePattern(4096, 0x99)
	body, err := json.Marshal(fsproto.WriteRequest{Name: "f.dat", Offset: 8192, Data: inline})
	if err != nil {
		t.Fatal(err)
	}
	if resp := rawPost(t, hs.URL+"/v1/write", fsproto.ContentTypeJSON, token, body); resp.StatusCode != http.StatusOK {
		t.Fatalf("plain-JSON write: status %d", resp.StatusCode)
	}
	resp := rawPost(t, hs.URL+"/v1/read", fsproto.ContentTypeJSON, token, []byte(`{"name":"f.dat","offset":8192,"length":4096}`))
	got, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(got, inline) {
		t.Fatalf("raw read: status %d, err %v, equal %v", resp.StatusCode, err, bytes.Equal(got, inline))
	}
	if ct := resp.Header.Get("Content-Type"); ct != fsproto.ContentTypeOctets {
		t.Errorf("read Content-Type = %q, want %q", ct, fsproto.ContentTypeOctets)
	}
	if resp.ContentLength != 4096 || len(resp.TransferEncoding) != 0 {
		t.Errorf("read went out with Content-Length %d, Transfer-Encoding %v; want 4096 and none", resp.ContentLength, resp.TransferEncoding)
	}
	// Errors stay JSON.
	resp = rawPost(t, hs.URL+"/v1/read", fsproto.ContentTypeJSON, token, []byte(`{"name":"nope.dat","length":16}`))
	var pe fsproto.Error
	if err := json.NewDecoder(resp.Body).Decode(&pe); err != nil || pe.Code != fsproto.CodeNotFound {
		t.Fatalf("read of a missing file: status %d, code %q, err %v", resp.StatusCode, pe.Code, err)
	}
}

// TestTimedOutWriteKeepsItsBytes: a framed write's Data aliases the request
// body, and the write outlives its handler when RequestTimeout fires while
// it is queued. The body must still hold the intended bytes when the worker
// gets to it — which is why request bodies are never pooled.
func TestTimedOutWriteKeepsItsBytes(t *testing.T) {
	svc := server.New(server.Options{
		Shards:         1,
		MCMode:         core.SchemeFsEncr.MCMode(),
		Access:         core.SchemeFsEncr.AccessMode(),
		RequestTimeout: 100 * time.Millisecond,
	})
	hs := httptest.NewServer(svc.Mux())
	t.Cleanup(func() { svc.Close(); hs.Close() })

	cl := fsclient.Dial(hs.URL)
	if err := cl.Login("acme", 1, "pw"); err != nil {
		t.Fatalf("login: %v", err)
	}
	if err := cl.Create(fsproto.CreateRequest{Name: "f.dat", Perm: 0600, Size: 1 << 16, Encrypted: true}); err != nil {
		t.Fatalf("create: %v", err)
	}

	hold, err := svc.Shards()[0].Hold(context.Background())
	if err != nil {
		t.Fatalf("hold: %v", err)
	}
	want := wirePattern(4096, 0x5A)
	err = cl.Write(fsproto.WriteRequest{Name: "f.dat", Offset: 0, Data: want})
	if !fsclient.IsCode(err, fsproto.CodeTimeout) {
		hold.Resume()
		t.Fatalf("write behind a held shard: %v, want timeout", err)
	}
	// More same-sized requests on the same connection while the first is
	// still queued: a recycled body buffer would be overwritten by these.
	for i := 0; i < 8; i++ {
		err := cl.Write(fsproto.WriteRequest{Name: "f.dat", Offset: 4096, Data: wirePattern(4096, byte(i))})
		if !fsclient.IsCode(err, fsproto.CodeTimeout) {
			hold.Resume()
			t.Fatalf("write %d behind a held shard: %v, want timeout", i, err)
		}
	}
	hold.Resume()

	// A read can be answered from a snapshot before the queue has drained,
	// so poll until the write has landed.
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, err := cl.Read(fsproto.ReadRequest{Name: "f.dat", Offset: 0, Length: 4096})
		if err == nil && bytes.Equal(got, want) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed-out write never landed intact: err %v, equal %v", err, bytes.Equal(got, want))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTakenOverConnection pins what a connection answers once the request
// loop holds it (from its second request on): the API's own answers — POST
// required, X-Request-Id on errors too — and the one rule net/http did not
// have: a path outside /v1 cannot be handed back to the mux, so it is
// answered 404 not_found with "Connection: close" and the connection ends.
// Pipelined requests are answered in order.
func TestTakenOverConnection(t *testing.T) {
	_, hs := traceService(t)
	nc, err := net.Dial("tcp", strings.TrimPrefix(hs.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(nc)
	exchange := func(raw string) (*http.Response, fsproto.Error) {
		t.Helper()
		if raw != "" {
			if _, err := io.WriteString(nc, raw); err != nil {
				t.Fatalf("write %q: %v", raw, err)
			}
		}
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("read the answer to %q: %v", raw, err)
		}
		var pe fsproto.Error
		body, _ := io.ReadAll(resp.Body)
		_ = json.Unmarshal(body, &pe) // a 200 leaves it empty
		return resp, pe
	}
	login := `{"tenant":"acme","uid":1,"passphrase":"pw"}`
	if resp, _ := exchange(fmt.Sprintf("POST /v1/login HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s", len(login), login)); resp.StatusCode != http.StatusOK {
		t.Fatalf("login: %d", resp.StatusCode)
	}
	// Two requests in one segment: wrong method, then no token.
	resp, pe := exchange("GET /v1/read HTTP/1.1\r\nHost: x\r\n\r\n" +
		"POST /v1/read HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}")
	if resp.StatusCode != http.StatusBadRequest || pe.Code != fsproto.CodeBadRequest || !strings.Contains(pe.Message, "POST required") || resp.Close {
		t.Fatalf("GET on a taken-over connection: %d %+v close=%v, want 400 bad_request (POST required), connection kept", resp.StatusCode, pe, resp.Close)
	}
	resp, pe = exchange("")
	if resp.StatusCode != http.StatusUnauthorized || pe.Code != fsproto.CodeAuth || len(resp.Header.Get(fsproto.RequestIDHeader)) != 16 || resp.Close {
		t.Fatalf("pipelined tokenless read: %d %+v id %q close=%v, want 401 auth with a request id, connection kept",
			resp.StatusCode, pe, resp.Header.Get(fsproto.RequestIDHeader), resp.Close)
	}
	resp, pe = exchange("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
	if resp.StatusCode != http.StatusNotFound || pe.Code != fsproto.CodeNotFound || !resp.Close {
		t.Fatalf("/metrics on a taken-over connection: %d %+v close=%v, want 404 not_found and Connection: close", resp.StatusCode, pe, resp.Close)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("after the 404 the connection is still open (read: %v)", err)
	}
	// The same path on a connection of its own is net/http's as before.
	if resp, err := http.Get(hs.URL + "/metrics"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics on a fresh connection: %v", err)
	} else {
		resp.Body.Close()
	}
}

// FuzzFramedWrite feeds arbitrary bodies to /v1/write as payload frames,
// seeded from the malice campaign's malformed frames: the handler never
// panics, never answers 5xx, and a body it accepts is a well-formed frame.
// Every body goes through both transports — a recorder behind the net/http
// adapter, and a kept connection the request loop has taken over — and the
// two must answer with the same status.
func FuzzFramedWrite(f *testing.F) {
	for _, frame := range fsclient.MaliceFrames() {
		if len(frame.Body) <= 1<<16 { // the oversized frame would only slow mutation down
			f.Add(frame.Body)
		}
	}
	good, _ := json.Marshal(fsproto.WriteRequest{Name: "f.dat", Offset: 64})
	f.Add(fsproto.AppendFrame(nil, good, []byte("payload")))
	f.Add(fsproto.AppendFrame(nil, good, nil))
	f.Add(fsproto.AppendFrame(nil, []byte(`{"name":"f.dat","data":"WlpaWg=="}`), []byte(`{"name":"g.dat"}`)))
	f.Add(fsproto.AppendFrame(nil, []byte(`{"name":"f.dat","offset":18446744073709551613}`), []byte("wrapped")))

	svc := server.New(server.Options{
		Shards: 1,
		MCMode: core.SchemeFsEncr.MCMode(),
		Access: core.SchemeFsEncr.AccessMode(),
	})
	f.Cleanup(svc.Close)
	mux := svc.Mux()
	post := func(path, ctype, token string, body []byte) *httptest.ResponseRecorder {
		r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		r.Header.Set("Content-Type", ctype)
		r.Header.Set(fsproto.TokenHeader, token)
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, r)
		return rec
	}
	var lr fsproto.LoginResponse
	rec := post("/v1/login", fsproto.ContentTypeJSON, "", []byte(`{"tenant":"acme","uid":1,"passphrase":"pw"}`))
	if err := json.Unmarshal(rec.Body.Bytes(), &lr); err != nil || lr.Token == "" {
		f.Fatalf("login: status %d, err %v", rec.Code, err)
	}
	create, _ := json.Marshal(fsproto.CreateRequest{Name: "f.dat", Perm: 0600, Size: 1 << 16, Encrypted: true})
	if rec := post("/v1/create", fsproto.ContentTypeJSON, lr.Token, create); rec.Code != http.StatusOK {
		f.Fatalf("create: status %d", rec.Code)
	}

	hs := httptest.NewServer(mux)
	f.Cleanup(hs.Close)
	live, err := fsproto.Dial(hs.URL)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(live.Close)
	// The first request of the connection: from the second on it is the loop's.
	if resp, err := live.Do(&fsproto.Request{Path: "/v1/stat", ContentType: fsproto.ContentTypeJSON, Token: lr.Token, Body: []byte(`{"name":"f.dat"}`)}); err != nil || resp.Status != http.StatusOK {
		f.Fatalf("stat over the live connection: %+v, %v", resp, err)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := post("/v1/write", fsproto.ContentTypeFrame, lr.Token, body)
		if rec.Code >= 500 {
			t.Fatalf("status %d for frame %x: %s", rec.Code, body, rec.Body)
		}
		if len(body) <= fsproto.MaxBodyBytes { // over it the loop refuses by the length alone, the recorder has none
			resp, err := live.Do(&fsproto.Request{Path: "/v1/write", ContentType: fsproto.ContentTypeFrame, Token: lr.Token, Body: body})
			if err != nil || resp.Status != rec.Code {
				t.Fatalf("frame %x: the request loop answered %d (%v), the adapter %d", body, resp.Status, err, rec.Code)
			}
		}
		if _, _, err := fsproto.SplitFrame(body); err != nil && rec.Code != http.StatusBadRequest {
			t.Fatalf("malformed frame %x answered %d, want 400", body, rec.Code)
		}
	})
}

// benchClient boots the service behind a loopback listener and returns one
// logged-in product client with a written 64 KiB file and one KV pair.
func benchClient(b *testing.B) *fsclient.Client {
	b.Helper()
	svc := server.New(server.Options{
		Shards: 1,
		MCMode: core.SchemeFsEncr.MCMode(),
		Access: core.SchemeFsEncr.AccessMode(),
	})
	hs := httptest.NewServer(svc.Mux())
	cl := fsclient.Dial(hs.URL)
	b.Cleanup(func() { cl.Close(); svc.Close(); hs.Close() })
	if err := cl.Login("acme", 1, "pw"); err != nil {
		b.Fatalf("login: %v", err)
	}
	if err := cl.Create(fsproto.CreateRequest{Name: "f.dat", Perm: 0600, Size: 1 << 16, Encrypted: true}); err != nil {
		b.Fatalf("create: %v", err)
	}
	if err := cl.Write(fsproto.WriteRequest{Name: "f.dat", Data: wirePattern(1<<16, 1)}); err != nil {
		b.Fatalf("write: %v", err)
	}
	if err := cl.KVCreate(fsproto.KVCreateRequest{Store: "kv", Size: 1 << 20}); err != nil {
		b.Fatalf("kv create: %v", err)
	}
	if err := cl.KVPut(fsproto.KVPutRequest{Store: "kv", Key: 7, Value: wirePattern(64, 2)}); err != nil {
		b.Fatalf("kv put: %v", err)
	}
	return cl
}

// BenchmarkClientRead4K is one 4 KiB read end to end over loopback: the
// product client, the wire exchange, net/http's server and the fast read
// path. Allocations are the whole process's, client and server.
func BenchmarkClientRead4K(b *testing.B) {
	cl := benchClient(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Read(fsproto.ReadRequest{Name: "f.dat", Offset: uint64(i%16) * 4096, Length: 4096}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClientKVGet is the small-body counterpart: a 64-byte value, so
// the fixed per-request cost is what it measures.
func BenchmarkClientKVGet(b *testing.B) {
	cl := benchClient(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.KVGet(fsproto.KVGetRequest{Store: "kv", Key: 7}); err != nil {
			b.Fatal(err)
		}
	}
}
