package aesctr

import "testing"

// Hot-path benchmarks for the crypto engine's per-line entry points, the ones
// the memory controller's datapath and the software-encryption baseline call.

var sinkPad Line

func benchIV(i int) IV {
	return IV{
		PageID:     uint64(i >> 6),
		LineInPage: uint8(i & 63),
		Major:      uint64(i >> 3),
		Minor:      uint8(i & 127),
		Domain:     DomainMemory,
	}
}

func BenchmarkOTPInto(b *testing.B) {
	e := New(testKey(1), 40)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.OTPInto(&sinkPad, benchIV(i))
	}
}

func BenchmarkXORInto(b *testing.B) {
	var x, y Line
	for i := range x {
		x[i] = byte(i)
		y[i] = byte(255 - i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		XORInto(&x, &y)
	}
}
