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

func apiErr(w http.ResponseWriter, status int, code string) {
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(fsproto.Error{Code: code, Message: code})
}

// TestRetryOffByDefault: a 429 comes straight back on the first attempt —
// an op is sent exactly once unless a retry policy is set.
func TestRetryOffByDefault(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		apiErr(w, http.StatusTooManyRequests, fsproto.CodeBusy)
	}))
	defer srv.Close()
	c := Dial(srv.URL)
	err := c.post("/v1/create", struct{}{}, nil)
	if !IsCode(err, fsproto.CodeBusy) {
		t.Fatalf("want busy error, got %v", err)
	}
	var ae *APIError
	if !asAPIError(err, &ae) || ae.Attempts != 1 {
		t.Fatalf("want Attempts=1, got %+v", ae)
	}
	if hits.Load() != 1 {
		t.Fatalf("server hit %d times, want 1", hits.Load())
	}
}

// TestRetryOnBusy: with a policy installed, 429s are re-sent with backoff
// until the server accepts, and the attempt count is stamped on failures.
func TestRetryOnBusy(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			apiErr(w, http.StatusTooManyRequests, fsproto.CodeBusy)
			return
		}
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	c := Dial(srv.URL)
	c.SetRetry(RetryPolicy{Max: 5, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond})
	if err := c.post("/v1/create", struct{}{}, nil); err != nil {
		t.Fatalf("post after retries: %v", err)
	}
	if hits.Load() != 3 {
		t.Fatalf("server hit %d times, want 3", hits.Load())
	}
}

// TestRetryBudgetExhausted: a persistent 429 eventually surfaces, carrying
// the true attempt count.
func TestRetryBudgetExhausted(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		apiErr(w, http.StatusTooManyRequests, fsproto.CodeBusy)
	}))
	defer srv.Close()
	c := Dial(srv.URL)
	c.SetRetry(RetryPolicy{Max: 3, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond})
	err := c.post("/v1/create", struct{}{}, nil)
	var ae *APIError
	if !asAPIError(err, &ae) || ae.Attempts != 4 {
		t.Fatalf("want Attempts=4 (1 + 3 retries), got %v", err)
	}
}

// TestNoRetryOnPermission: non-transient API errors are never re-sent even
// with a policy installed.
func TestNoRetryOnPermission(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		apiErr(w, http.StatusForbidden, fsproto.CodePermission)
	}))
	defer srv.Close()
	c := Dial(srv.URL)
	c.SetRetry(RetryPolicy{Max: 5, BaseDelay: time.Millisecond})
	err := c.post("/v1/chmod", struct{}{}, nil)
	if !IsCode(err, fsproto.CodePermission) || hits.Load() != 1 {
		t.Fatalf("want single permission failure, got err=%v hits=%d", err, hits.Load())
	}
}

// TestRerouteOnEpochMismatch: a 421 epoch-mismatch consults the rerouter
// and re-sends to the new base without consuming the retry budget.
func TestRerouteOnEpochMismatch(t *testing.T) {
	newOwner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{}"))
	}))
	defer newOwner.Close()
	var oldHits atomic.Int64
	oldOwner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		oldHits.Add(1)
		apiErr(w, http.StatusMisdirectedRequest, fsproto.CodeEpochMismatch)
	}))
	defer oldOwner.Close()
	c := Dial(oldOwner.URL)
	rerouted := false
	c.SetRerouter(func() (string, bool) {
		rerouted = true
		return newOwner.URL, true
	})
	if err := c.post("/v1/write", struct{}{}, nil); err != nil {
		t.Fatalf("post after reroute: %v", err)
	}
	if !rerouted || oldHits.Load() != 1 {
		t.Fatalf("want one old-owner hit and a reroute, got hits=%d rerouted=%v", oldHits.Load(), rerouted)
	}
}

// TestRerouteOnConnectionError: a dead node triggers the rerouter too
// (replica promotion), even with retries off.
func TestRerouteOnConnectionError(t *testing.T) {
	alive := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{}"))
	}))
	defer alive.Close()
	dead := httptest.NewServer(http.HandlerFunc(nil))
	deadURL := dead.URL
	dead.Close()
	c := Dial(deadURL)
	c.SetRerouter(func() (string, bool) { return alive.URL, true })
	if err := c.post("/v1/read", struct{}{}, nil); err != nil {
		t.Fatalf("post after failover reroute: %v", err)
	}
}

func asAPIError(err error, ae **APIError) bool {
	e, ok := err.(*APIError)
	if ok {
		*ae = e
	}
	return ok
}
