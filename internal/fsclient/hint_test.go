package fsclient

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"fsencr/internal/fsproto"
)

// TestQueueDepthHintParsed: a 429 carrying X-Fsencr-Queue-Depth surfaces
// the depth on the APIError; one without the header reads as -1 (no hint).
func TestQueueDepthHintParsed(t *testing.T) {
	// Atomic: the client's gathered write (writev) carries no
	// happens-before edge in the race detector's model of I/O.
	var depth atomic.Value
	depth.Store("")
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if d := depth.Load().(string); d != "" {
			w.Header().Set(fsproto.QueueDepthHeader, d)
		}
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(fsproto.Error{Code: fsproto.CodeBusy, Message: "full"})
	}))
	defer srv.Close()
	c := Dial(srv.URL)

	depth.Store("37")
	err := c.post("/v1/read", struct{}{}, nil)
	var ae *APIError
	if !asAPIError(err, &ae) || ae.QueueDepth != 37 {
		t.Fatalf("want QueueDepth=37, got %v", err)
	}

	depth.Store("")
	err = c.post("/v1/read", struct{}{}, nil)
	if !asAPIError(err, &ae) || ae.QueueDepth != -1 {
		t.Fatalf("want QueueDepth=-1 without hint, got %+v", ae)
	}
}

// TestHintAwareBackoff pins the backoff split: a hinted 429 backs off
// proportionally to the reported queue depth (shallow queue: near one
// BaseDelay even on late attempts), while unhinted errors keep the
// exponential curve. The jitter windows [d/2, 3d/2) are checked as hard
// bounds.
func TestHintAwareBackoff(t *testing.T) {
	c := Dial("http://unused")
	c.SetRetry(RetryPolicy{Max: 8, BaseDelay: 8 * time.Millisecond, MaxDelay: 256 * time.Millisecond})

	shallow := &APIError{Status: http.StatusTooManyRequests, QueueDepth: 0}
	deep := &APIError{Status: http.StatusTooManyRequests, QueueDepth: 64}
	unhinted := &APIError{Status: http.StatusTooManyRequests, QueueDepth: -1}

	for i := 0; i < 50; i++ {
		// Shallow hint on attempt 5: d = base = 8ms, sleep in [4ms, 12ms).
		if d := c.backoffFor(5, shallow); d < 4*time.Millisecond || d >= 12*time.Millisecond {
			t.Fatalf("shallow-hint backoff %v outside [4ms, 12ms)", d)
		}
		// Deep hint: d = 8ms + 8ms*64/16 = 40ms, sleep in [20ms, 60ms) —
		// longer than shallow, still not exponential.
		if d := c.backoffFor(5, deep); d < 20*time.Millisecond || d >= 60*time.Millisecond {
			t.Fatalf("deep-hint backoff %v outside [20ms, 60ms)", d)
		}
		// No hint on attempt 5: exponential d = 8ms<<4 = 128ms, >= 64ms.
		if d := c.backoffFor(5, unhinted); d < 64*time.Millisecond {
			t.Fatalf("unhinted backoff %v below exponential floor 64ms", d)
		}
	}
}

// TestClientStat: the typed Stat method round-trips the /v1/stat shapes.
func TestClientStat(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/stat" {
			t.Errorf("path %s, want /v1/stat", r.URL.Path)
		}
		var req fsproto.StatRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Name != "f.dat" {
			t.Errorf("bad request (%v): %+v", err, req)
		}
		json.NewEncoder(w).Encode(fsproto.StatResponse{
			Name: "acme/f.dat", Size: 8192, Perm: 0640, Encrypted: true, Pages: 2,
		})
	}))
	defer srv.Close()
	c := Dial(srv.URL)
	resp, err := c.Stat(fsproto.StatRequest{Name: "f.dat"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Name != "acme/f.dat" || resp.Size != 8192 || resp.Pages != 2 || !resp.Encrypted {
		t.Fatalf("stat response %+v", resp)
	}
}
