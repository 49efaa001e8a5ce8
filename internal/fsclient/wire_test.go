package fsclient

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"fsencr/internal/fsproto"
)

// TestResponseReadBounded: the client reads at most the protocol's body
// bound of a response that declares its length, and refuses one that
// streams without a length before reading its body, whatever its size.
func TestResponseReadBounded(t *testing.T) {
	// /<declared>/<total>/v1/read streams total bytes, declaring declared
	// (-1: no Content-Length, so net/http sends it chunked).
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parts := strings.Split(r.URL.Path, "/")
		declared, _ := strconv.Atoi(parts[1])
		total, _ := strconv.Atoi(parts[2])
		w.Header().Set("Content-Type", fsproto.ContentTypeOctets)
		if declared >= 0 {
			w.Header().Set("Content-Length", strconv.Itoa(declared))
		}
		chunk := make([]byte, 64<<10)
		for sent := 0; sent < total; sent += len(chunk) {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	}))
	defer srv.Close()
	const limit = fsproto.MaxBodyBytes
	read := func(declared, total int) ([]byte, error) {
		c := Dial(srv.URL + "/" + strconv.Itoa(declared) + "/" + strconv.Itoa(total))
		defer c.Close()
		return c.Read(fsproto.ReadRequest{Name: "f", Length: 1})
	}

	got, err := read(limit+1, 4*limit)
	if err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("declared %d: %d bytes, err %v; want the body-limit error", limit+1, len(got), err)
	}
	// Undeclared: refused at the head, before the body is read.
	for _, total := range []int{limit, 4 * limit} {
		got, err := read(-1, total)
		var we *fsproto.WireError
		if !errors.As(err, &we) || we.Op != "read" || !strings.Contains(err.Error(), "transfer-encoding") || got != nil {
			t.Fatalf("undeclared %d-byte body: %d bytes, err %v; want a read WireError refusing the chunked head", total, len(got), err)
		}
	}
	// At the bound exactly the read succeeds and returns every byte.
	if got, err := read(limit, limit); err != nil || len(got) != limit {
		t.Fatalf("declared %d, body at the bound: %d bytes, err %v", limit, len(got), err)
	}
}

// TestPayloadContentTypeChecked: Read and KVGet accept a 200 only as a raw
// payload. A JSON 200 (an older server, a proxy's own page) must not be
// handed to the caller as file bytes.
func TestPayloadContentTypeChecked(t *testing.T) {
	const body = `{"data":"WlpaWg=="}`
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctype := fsproto.ContentTypeJSON
		if strings.HasPrefix(r.URL.Path, "/octets/") {
			ctype = fsproto.ContentTypeOctets
		}
		w.Header().Set("Content-Type", ctype)
		w.Write([]byte(body))
	}))
	defer srv.Close()

	c := Dial(srv.URL + "/json")
	if got, err := c.Read(fsproto.ReadRequest{Name: "f", Length: 4}); err == nil {
		t.Fatalf("Read accepted a JSON 200 as payload %q", got)
	}
	if got, err := c.KVGet(fsproto.KVGetRequest{Store: "s"}); err == nil {
		t.Fatalf("KVGet accepted a JSON 200 as payload %q", got)
	}
	c = Dial(srv.URL + "/octets")
	if got, err := c.Read(fsproto.ReadRequest{Name: "f", Length: 4}); err != nil || string(got) != body {
		t.Fatalf("Read of an octet-stream 200: %q, %v", got, err)
	}
}
