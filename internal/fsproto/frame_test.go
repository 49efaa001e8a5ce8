package fsproto

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestSplitFrameRejectsMalformed(t *testing.T) {
	for name, b := range map[string][]byte{
		"empty":            nil,
		"short header":     {0, 0, 1},
		"meta overruns":    {0, 0, 0, 5, 'a', 'b'},
		"meta length max":  {0xFF, 0xFF, 0xFF, 0xFF, 'a'},
		"meta length 2^31": {0x80, 0, 0, 0},
	} {
		if _, _, err := SplitFrame(b); !errors.Is(err, ErrFrame) {
			t.Errorf("%s: err = %v, want ErrFrame", name, err)
		}
	}
}

func TestSplitFrameAliases(t *testing.T) {
	frame := AppendFrame(nil, []byte(`{"name":"f"}`), []byte("payload"))
	meta, payload, err := SplitFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if &meta[0] != &frame[FrameHeaderLen] || &payload[0] != &frame[FrameHeaderLen+len(meta)] {
		t.Fatal("SplitFrame copied instead of aliasing the frame")
	}
	// Appending to meta must reallocate, never run into the payload.
	_ = append(meta, 'X')
	if string(payload) != "payload" {
		t.Fatal("append to meta overwrote the payload")
	}
}

func TestReadBodyBounds(t *testing.T) {
	const limit = 8
	for _, tc := range []struct {
		name   string
		body   string
		length int64
		ok     bool
	}{
		{"declared", "12345678", 8, true},
		{"declared empty", "", 0, true},
		{"declared over limit", "123456789", 9, false},
		{"declared longer than sent", "123", 5, false},
		{"undeclared", "1234", -1, true},
		{"undeclared at limit", "12345678", -1, true},
		{"undeclared over limit", "123456789", -1, false},
	} {
		got, err := ReadBody(strings.NewReader(tc.body), tc.length, limit)
		if tc.ok != (err == nil) {
			t.Errorf("%s: err = %v", tc.name, err)
		} else if tc.ok && string(got) != tc.body {
			t.Errorf("%s: got %q, want %q", tc.name, got, tc.body)
		}
	}
}

// FuzzSplitFrame: SplitFrame never panics and accepts only bodies that
// AppendFrame reproduces byte for byte; AppendFrame∘SplitFrame returns any
// meta and payload unchanged.
func FuzzSplitFrame(f *testing.F) {
	f.Add([]byte(nil), []byte(nil))
	f.Add([]byte(`{"name":"f.dat","offset":0,"data":null}`), []byte(nil))
	f.Add([]byte(`{"name":"f.dat"}`), []byte(`{"name":"other","data":"WlpaWg=="}`))
	f.Add([]byte{0, 0, 0, 2, '{', '}', 1, 2, 3}, []byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}, bytes.Repeat([]byte{'Z'}, 4096))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		if meta, payload, err := SplitFrame(a); err == nil {
			if again := AppendFrame(nil, meta, payload); !bytes.Equal(again, a) {
				t.Fatalf("accepted %x but it re-frames as %x", a, again)
			}
		} else if !errors.Is(err, ErrFrame) {
			t.Fatalf("err = %v, want ErrFrame", err)
		}
		meta, payload, err := SplitFrame(AppendFrame(nil, a, b))
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if !bytes.Equal(meta, a) || !bytes.Equal(payload, b) {
			t.Fatalf("round trip changed the bytes: meta %x -> %x, payload %x -> %x", a, meta, b, payload)
		}
	})
}
