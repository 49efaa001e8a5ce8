package aesctr

import (
	"testing"
	"testing/quick"

	"fsencr/internal/config"
)

func testKey(b byte) Key {
	var k Key
	for i := range k {
		k[i] = b + byte(i)
	}
	return k
}

// otp and xor give the tests value semantics over the datapath's in-place
// entry points.
func otp(e *Engine, iv IV) (pad Line) {
	e.OTPInto(&pad, iv)
	return pad
}

func xor(a, b Line) Line {
	XORInto(&a, &b)
	return a
}

func TestOTPDeterministic(t *testing.T) {
	e := New(testKey(1), 40)
	iv := IV{PageID: 7, LineInPage: 3, Major: 9, Minor: 2, Domain: DomainMemory}
	if otp(e, iv) != otp(e, iv) {
		t.Fatal("OTP not deterministic")
	}
}

func TestOTPSensitivity(t *testing.T) {
	e := New(testKey(1), 40)
	base := IV{PageID: 7, LineInPage: 3, Major: 9, Minor: 2, Domain: DomainMemory}
	variants := []IV{
		{PageID: 8, LineInPage: 3, Major: 9, Minor: 2, Domain: DomainMemory},
		{PageID: 7, LineInPage: 4, Major: 9, Minor: 2, Domain: DomainMemory},
		{PageID: 7, LineInPage: 3, Major: 10, Minor: 2, Domain: DomainMemory},
		{PageID: 7, LineInPage: 3, Major: 9, Minor: 3, Domain: DomainMemory},
		{PageID: 7, LineInPage: 3, Major: 9, Minor: 2, Domain: DomainFile},
	}
	b := otp(e, base)
	for i, iv := range variants {
		if otp(e, iv) == b {
			t.Fatalf("variant %d produced identical OTP (spatial/temporal uniqueness broken)", i)
		}
	}
}

func TestOTPKeySeparation(t *testing.T) {
	iv := IV{PageID: 1, Domain: DomainMemory}
	if otp(New(testKey(1), 0), iv) == otp(New(testKey(2), 0), iv) {
		t.Fatal("different keys produced identical OTPs")
	}
}

func TestApplyRoundtrip(t *testing.T) {
	e := New(testKey(9), 40)
	f := func(data Line, page uint64, li uint8, major uint64, minor uint8) bool {
		iv := IV{PageID: page, LineInPage: li % config.LinesPerPage, Major: major, Minor: minor & config.MinorCounterMax, Domain: DomainFile}
		ct := xor(data, otp(e, iv))
		return xor(ct, otp(e, iv)) == data && (ct != data || data == Line{})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestXOR(t *testing.T) {
	var a, b Line
	for i := range a {
		a[i] = byte(i)
		b[i] = byte(255 - i)
	}
	c := xor(a, b)
	for i := range c {
		if c[i] != a[i]^b[i] {
			t.Fatalf("XOR wrong at %d", i)
		}
	}
	if xor(c, b) != a {
		t.Fatal("XOR not involutive")
	}
}

func TestDualOTPComposition(t *testing.T) {
	// The FsEncr datapath XORs two OTPs; decryption with both engines in
	// either order must recover the plaintext.
	mem := New(testKey(3), 0)
	file := New(testKey(4), 0)
	var plain Line
	for i := range plain {
		plain[i] = byte(i * 7)
	}
	ivM := IV{PageID: 5, LineInPage: 1, Major: 2, Minor: 3, Domain: DomainMemory}
	ivF := IV{PageID: 5, LineInPage: 1, Major: 1, Minor: 1, Domain: DomainFile}
	ct := xor(plain, xor(otp(mem, ivM), otp(file, ivF)))
	back := xor(xor(ct, otp(file, ivF)), otp(mem, ivM))
	if back != plain {
		t.Fatal("dual OTP composition failed")
	}
	// Memory key alone must NOT recover the plaintext.
	if xor(ct, otp(mem, ivM)) == plain {
		t.Fatal("memory OTP alone decrypted a file line")
	}
}

func TestBlock16Roundtrip(t *testing.T) {
	e := New(testKey(5), 0)
	src := []byte("0123456789abcdef")
	dst := make([]byte, 16)
	back := make([]byte, 16)
	e.EncryptBlock16(dst, src)
	e.DecryptBlock16(back, dst)
	if string(back) != string(src) {
		t.Fatalf("ECB roundtrip got %q", back)
	}
	if string(dst) == string(src) {
		t.Fatal("ECB encryption is identity")
	}
}

func TestLatencyAccessor(t *testing.T) {
	if New(testKey(1), 40).Latency() != 40 {
		t.Fatal("latency not stored")
	}
}

func TestOTPBlocksDiffer(t *testing.T) {
	// The four 16-byte AES blocks within one OTP must differ.
	e := New(testKey(8), 0)
	pad := otp(e, IV{PageID: 1, Domain: DomainMemory})
	for i := 0; i < 3; i++ {
		a := pad[i*16 : (i+1)*16]
		b := pad[(i+1)*16 : (i+2)*16]
		same := true
		for j := range a {
			if a[j] != b[j] {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("OTP blocks %d and %d identical", i, i+1)
		}
	}
}
