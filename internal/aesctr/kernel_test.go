package aesctr

import (
	"bytes"
	"crypto/aes"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"sync"
	"testing"

	"fsencr/internal/config"
)

func unhex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestKernelKnownAnswers runs the FIPS-197 cipher examples (Appendix B and
// C.1) through the kernel and through the reference loop.
func TestKernelKnownAnswers(t *testing.T) {
	for _, v := range []struct{ name, key, plain, cipher string }{
		{"AppendixB", "2b7e151628aed2a6abf7158809cf4f3c", "3243f6a8885a308d313198a2e0370734", "3925841d02dc09fbdc118597196a0b32"},
		{"AppendixC1", "000102030405060708090a0b0c0d0e0f", "00112233445566778899aabbccddeeff", "69c4e0d86a7b0430d8cdb78070b4c55a"},
	} {
		e := New(Key(unhex(t, v.key)), 0)
		want := unhex(t, v.cipher)
		// Nine copies: one pass each through the 8-block loop and the
		// 1-block tail.
		buf := bytes.Repeat(unhex(t, v.plain), 9)
		ref := bytes.Clone(buf)
		e.encryptBlocks(buf)
		e.encryptBlocksRef(ref)
		for i := 0; i < len(buf); i += 16 {
			if !bytes.Equal(buf[i:i+16], want) {
				t.Errorf("%s: kernel block %d = %x, want %x", v.name, i/16, buf[i:i+16], want)
			}
			if !bytes.Equal(ref[i:i+16], want) {
				t.Errorf("%s: reference block %d = %x, want %x", v.name, i/16, ref[i:i+16], want)
			}
		}
	}
}

// TestKernelMatchesStdlib holds the kernel and the reference loop to
// crypto/aes itself over random keys, for every block count that reaches the
// 8/4/1 tails (and none), at every buffer misalignment. Bytes past the last
// whole block must be left alone.
func TestKernelMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 130; n++ {
		var key Key
		rng.Read(key[:])
		e := New(key, 0)
		std, err := aes.NewCipher(key[:])
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < 16; off++ {
			tail := (n + off) % 16 // a partial block the kernel must not touch
			backing := make([]byte, off+n*16+tail)
			rng.Read(backing)
			want := bytes.Clone(backing)
			for i := 0; i < n; i++ {
				b := want[off+i*16 : off+(i+1)*16]
				std.Encrypt(b, b)
			}
			ref := bytes.Clone(backing)
			e.encryptBlocks(backing[off:])
			e.encryptBlocksRef(ref[off:])
			if !bytes.Equal(backing, want) {
				t.Fatalf("kernel: n=%d offset=%d differs from crypto/aes", n, off)
			}
			if !bytes.Equal(ref, want) {
				t.Fatalf("reference: n=%d offset=%d differs from crypto/aes", n, off)
			}
		}
	}
}

// refOTPLines is the pad generator as it stood before the kernel: one
// counter-block buffer rewritten per block, one crypto/aes call per block.
// It shares no code with otpLines, so it pins the Figure-2 layout as well as
// the cipher.
func refOTPLines(t testing.TB, key Key, dst []byte, pageID uint64, li0 int, major uint64, minors *[config.LinesPerPage]uint8, domain uint8) {
	std, err := aes.NewCipher(key[:])
	if err != nil {
		t.Fatal(err)
	}
	var ctr [16]byte
	binary.LittleEndian.PutUint64(ctr[0:8], pageID^(major>>32<<48))
	ctr[10] = domain
	binary.LittleEndian.PutUint32(ctr[11:15], uint32(major))
	for base := 0; base < len(dst); base += config.LineSize {
		li := li0 + base/config.LineSize
		ctr[8] = uint8(li)
		ctr[9] = minors[li]
		for blk := 0; blk < config.LineSize/16; blk++ {
			ctr[15] = byte(blk)
			std.Encrypt(dst[base+blk*16:base+(blk+1)*16], ctr[:])
		}
	}
}

// checkOTPLines compares all three pad entry points with refOTPLines for
// one (key, page, run of lines, counters, domain).
func checkOTPLines(t testing.TB, key Key, pageID uint64, li0, n int, major uint64, minors *[config.LinesPerPage]uint8, domain uint8) {
	t.Helper()
	e := New(key, 0)
	want := make([]byte, n*config.LineSize)
	refOTPLines(t, key, want, pageID, li0, major, minors, domain)

	got := make([]byte, n*config.LineSize)
	e.OTPLinesInto(got, pageID, li0, major, minors, domain)
	if !bytes.Equal(got, want) {
		t.Fatalf("OTPLinesInto(page %#x, li0 %d, n %d, major %#x, domain %d) differs from the reference", pageID, li0, n, major, domain)
	}
	for i := 0; i < n; i++ {
		var line Line
		e.OTPInto(&line, IV{PageID: pageID, LineInPage: uint8(li0 + i), Major: major, Minor: minors[li0+i], Domain: domain})
		if !bytes.Equal(line[:], want[i*config.LineSize:(i+1)*config.LineSize]) {
			t.Fatalf("OTPInto(page %#x, line %d, major %#x, domain %d) differs from the reference", pageID, li0+i, major, domain)
		}
	}
	if li0 == 0 && n == config.LinesPerPage {
		var page Page
		e.OTPPageInto(&page, pageID, major, minors, domain)
		if !bytes.Equal(page[:], want) {
			t.Fatalf("OTPPageInto(page %#x, major %#x, domain %d) differs from the reference", pageID, major, domain)
		}
	}
}

func TestPadsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		var key Key
		var minors [config.LinesPerPage]uint8
		rng.Read(key[:])
		rng.Read(minors[:]) // all eight bits: the layout gives the minor a whole byte
		li0 := rng.Intn(config.LinesPerPage)
		n := rng.Intn(config.LinesPerPage - li0 + 1)
		if i%4 == 0 {
			li0, n = 0, config.LinesPerPage
		}
		major := rng.Uint64() >> uint(rng.Intn(64)) // both sides of 32 bits
		checkOTPLines(t, key, rng.Uint64(), li0, n, major, &minors, uint8(rng.Intn(256)))
	}
}

// FuzzOTPLines is TestPadsMatchReference with the fuzzer choosing the
// inputs (make fuzz-smoke).
func FuzzOTPLines(f *testing.F) {
	f.Add([]byte("0123456789abcdef"), uint64(7), uint64(9), uint8(3), uint8(5), uint8(DomainFile), []byte{1, 2, 3})
	f.Add(make([]byte, 16), uint64(1)<<63, uint64(1)<<40|5, uint8(0), uint8(64), uint8(DomainMemory), []byte{})
	f.Fuzz(func(t *testing.T, keyBytes []byte, pageID, major uint64, li0, n, domain uint8, minorBytes []byte) {
		var key Key
		copy(key[:], keyBytes)
		var minors [config.LinesPerPage]uint8
		copy(minors[:], minorBytes)
		l := int(li0) % config.LinesPerPage
		checkOTPLines(t, key, pageID, l, int(n)%(config.LinesPerPage-l+1), major, &minors, domain)
	})
}

// TestEngineSharedAcrossGoroutines builds pads from one Engine on many
// goroutines at once — what memctrl's snapshot readers do with the
// controller's memory engine — and checks each against the pad a single
// goroutine built beforehand. Run under -race it also shows pad generation
// writes nothing but the caller's buffer.
func TestEngineSharedAcrossGoroutines(t *testing.T) {
	e := New(testKey(6), 0)
	var minors [config.LinesPerPage]uint8
	for i := range minors {
		minors[i] = uint8(i * 5)
	}
	const pages = 32
	want := make([]Page, pages)
	for p := range want {
		e.OTPPageInto(&want[p], uint64(p), uint64(p)*3, &minors, DomainMemory)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var page Page
			var line Line
			for i := 0; i < 200; i++ {
				p := (g + i) % pages
				e.OTPPageInto(&page, uint64(p), uint64(p)*3, &minors, DomainMemory)
				if page != want[p] {
					t.Errorf("goroutine %d: page %d pad differs under concurrent use", g, p)
					return
				}
				li := i % config.LinesPerPage
				e.OTPInto(&line, IV{PageID: uint64(p), LineInPage: uint8(li), Major: uint64(p) * 3, Minor: minors[li], Domain: DomainMemory})
				if !bytes.Equal(line[:], want[p][li*config.LineSize:(li+1)*config.LineSize]) {
					t.Errorf("goroutine %d: page %d line %d pad differs under concurrent use", g, p, li)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
