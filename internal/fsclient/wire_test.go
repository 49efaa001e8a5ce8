package fsclient

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"fsencr/internal/fsproto"
)

// TestResponseReadBounded: the client reads at most the protocol's body
// bound of a response, whether the server declares the length or streams
// without one.
func TestResponseReadBounded(t *testing.T) {
	// /<declared>/<total>/v1/read streams total bytes, declaring declared
	// (-1: no Content-Length) — four times the bound unless cut off.
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
		return c.Read(fsproto.ReadRequest{Name: "f", Length: 1})
	}

	for _, declared := range []int{limit + 1, -1} {
		got, err := read(declared, 4*limit)
		if err == nil || !strings.Contains(err.Error(), "limit") {
			t.Fatalf("declared %d: %d bytes, err %v; want the body-limit error", declared, len(got), err)
		}
	}
	// At the bound exactly the read succeeds and returns every byte.
	for _, declared := range []int{limit, -1} {
		if got, err := read(declared, limit); err != nil || len(got) != limit {
			t.Fatalf("declared %d, body at the bound: %d bytes, err %v", declared, len(got), err)
		}
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
