package kernel

import (
	"encoding/hex"
	"strings"
	"testing"
)

// TestDeriveFileKeyKnownAnswer pins DeriveFileKey's bytes: the first 16
// bytes of SHA-256("fek:" ‖ passphrase ‖ salt), computed independently. A
// passphrase too long for the stack buffer takes the same hash.
func TestDeriveFileKeyKnownAnswer(t *testing.T) {
	for _, c := range []struct {
		pass string
		salt [8]byte
		want string
	}{
		{"hunter2hunter2", [8]byte{1, 2, 3, 4, 5, 6, 7, 8}, "d65be1cfb0047b6779480a989dfd204a"},
		{"", [8]byte{}, "7f5fbddfa5e823f51f46121454910393"},
		{strings.Repeat("p", 200), [8]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, "4790fe189ac279580ed5cc285e01bb56"},
	} {
		key := DeriveFileKey(c.pass, c.salt)
		if got := hex.EncodeToString(key[:]); got != c.want {
			t.Errorf("DeriveFileKey(%d-byte passphrase) = %s, want %s", len(c.pass), got, c.want)
		}
	}
}

// TestDeriveFileKeyAllocs: deriving a key per open is free of heap
// allocations, so no memo is needed to keep the open path at zero.
func TestDeriveFileKeyAllocs(t *testing.T) {
	salt := [8]byte{9, 8, 7, 6, 5, 4, 3, 2}
	if n := testing.AllocsPerRun(100, func() { DeriveFileKey(pass, salt) }); n != 0 {
		t.Fatalf("DeriveFileKey: %.1f allocs/op, want 0", n)
	}
}
