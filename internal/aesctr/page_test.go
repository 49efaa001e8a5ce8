package aesctr

import (
	"testing"

	"fsencr/internal/config"
)

// TestOTPPageIntoMatchesPerLine pins the batching invariant the whole
// page-granularity datapath rests on: OTPPageInto must produce exactly the
// keystream 64 individual OTPInto calls produce, for arbitrary majors
// (including >32-bit, which fold into the page-ID lane) and per-line minors.
func TestOTPPageIntoMatchesPerLine(t *testing.T) {
	e := New(testKey(3), 40)
	majors := []uint64{0, 1, 127, 1 << 31, 1<<32 + 5, 1<<40 + 9}
	for _, major := range majors {
		var minors [config.LinesPerPage]uint8
		for li := range minors {
			minors[li] = uint8((li*7 + int(major)) % 128)
		}
		pageID := uint64(0x1234) ^ major
		var page Page
		e.OTPPageInto(&page, pageID, major, &minors, DomainFile)
		for li := 0; li < config.LinesPerPage; li++ {
			var want Line
			e.OTPInto(&want, IV{
				PageID:     pageID,
				LineInPage: uint8(li),
				Major:      major,
				Minor:      minors[li],
				Domain:     DomainFile,
			})
			got := page[li*config.LineSize : (li+1)*config.LineSize]
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("major %d line %d byte %d: page pad %#x != line pad %#x",
						major, li, i, got[i], want[i])
				}
			}
		}
	}
}

func TestXORPageInto(t *testing.T) {
	var a, b, orig Page
	for i := range a {
		a[i] = byte(i * 3)
		b[i] = byte(i >> 2)
	}
	orig = a
	XORPageInto(&a, &b)
	for i := range a {
		if a[i] != orig[i]^b[i] {
			t.Fatalf("byte %d: got %#x want %#x", i, a[i], orig[i]^b[i])
		}
	}
	XORPageInto(&a, &b)
	if a != orig {
		t.Fatal("XORPageInto is not an involution")
	}
}

var sinkPage Page

// BenchmarkOTPPageInto vs 64x BenchmarkOTPInto quantifies what one kernel
// call over a page's 256 blocks saves over 64 calls of four.
func BenchmarkOTPPageInto(b *testing.B) {
	e := New(testKey(1), 40)
	var minors [config.LinesPerPage]uint8
	for i := range minors {
		minors[i] = uint8(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.OTPPageInto(&sinkPage, uint64(i), uint64(i>>3), &minors, DomainMemory)
	}
}

func BenchmarkXORPageInto(b *testing.B) {
	var src Page
	for i := range src {
		src[i] = byte(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		XORPageInto(&sinkPage, &src)
	}
}
