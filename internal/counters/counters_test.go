package counters

import (
	"encoding/hex"
	"testing"
	"testing/quick"

	"fsencr/internal/config"
)

func TestMECBEncodeDecodeRoundtrip(t *testing.T) {
	f := func(major uint64, minors [config.LinesPerPage]uint8) bool {
		m := CB{Major: major}
		for i := range minors {
			m.Minor[i] = minors[i] & config.MinorCounterMax
		}
		got := Decode(Mem, m.MustEncode(Mem))
		return got == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFECBEncodeDecodeRoundtrip(t *testing.T) {
	f := func(group uint32, file uint16, major uint32, minors [config.LinesPerPage]uint8) bool {
		fe := CB{GroupID: group & MaxGroupID, FileID: file & MaxFileID, Major: uint64(major)}
		for i := range minors {
			fe.Minor[i] = minors[i] & config.MinorCounterMax
		}
		b, err := fe.Encode(File)
		if err != nil {
			return false
		}
		return Decode(File, b) == fe
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFECBEncodeRejectsOversizeIDs(t *testing.T) {
	f := CB{GroupID: MaxGroupID + 1}
	if _, err := f.Encode(File); err == nil {
		t.Fatal("19-bit group accepted")
	}
	f = CB{FileID: MaxFileID + 1}
	if _, err := f.Encode(File); err == nil {
		t.Fatal("15-bit file ID accepted")
	}
}

func TestMustEncodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustEncode did not panic on bad IDs")
		}
	}()
	f := CB{GroupID: MaxGroupID + 1}
	f.MustEncode(File)
}

func TestMECBBump(t *testing.T) {
	var m CB
	for i := 0; i < config.MinorCounterMax; i++ {
		if r := m.Bump(Mem, 5); r.Overflowed {
			t.Fatalf("premature overflow at %d", i)
		}
	}
	if m.Minor[5] != config.MinorCounterMax {
		t.Fatalf("minor = %d", m.Minor[5])
	}
	r := m.Bump(Mem, 5)
	if !r.Overflowed {
		t.Fatal("no overflow at 127->128")
	}
	if m.Major != 1 {
		t.Fatalf("major = %d", m.Major)
	}
	if m.Minor[5] != 1 {
		t.Fatalf("bumped minor after overflow = %d", m.Minor[5])
	}
	for i, v := range m.Minor {
		if i != 5 && v != 0 {
			t.Fatalf("minor %d not reset: %d", i, v)
		}
	}
}

func TestFECBBumpOverflow(t *testing.T) {
	var f CB
	f.Minor[0] = config.MinorCounterMax
	r := f.Bump(File, 0)
	if !r.Overflowed || f.Major != 1 || f.Minor[0] != 1 {
		t.Fatalf("overflow handling wrong: %+v major=%d minor=%d", r, f.Major, f.Minor[0])
	}
}

func TestFECBMajorWrap(t *testing.T) {
	f := CB{Major: 1<<32 - 1}
	f.Minor[3] = config.MinorCounterMax
	r := f.Bump(File, 3)
	if !r.MajorWrapped {
		t.Fatal("major wrap not reported (key rotation trigger)")
	}
}

func TestFECBReset(t *testing.T) {
	f := CB{GroupID: 5, FileID: 6, Major: 7}
	f.Minor[0] = 9
	f.Reset()
	if f.GroupID != 0 || f.FileID != 0 || f.Major != 0 || f.Minor[0] != 0 {
		t.Fatalf("reset incomplete: %+v", f)
	}
}

func TestBlockSize(t *testing.T) {
	var m CB
	if len(m.MustEncode(Mem)) != config.LineSize {
		t.Fatal("MECB not one cache line")
	}
	var f CB
	if len(f.MustEncode(File)) != config.LineSize {
		t.Fatal("FECB not one cache line")
	}
}

func TestDistinctBlocksEncodeDistinctly(t *testing.T) {
	a := CB{Major: 1}
	b := CB{Major: 2}
	if a.MustEncode(Mem) == b.MustEncode(Mem) {
		t.Fatal("distinct majors encode identically")
	}
	fa := CB{GroupID: 1}
	fb := CB{FileID: 1}
	if fa.MustEncode(File) == fb.MustEncode(File) {
		t.Fatal("group and file IDs aliased in encoding")
	}
}

func TestEncodeIntoMatchesEncode(t *testing.T) {
	m := CB{Major: 77}
	m.Minor[0] = 3
	m.Minor[63] = 127
	var mb Block
	m.MustEncodeInto(Mem, &mb)
	if mb != m.MustEncode(Mem) {
		t.Fatal("MECB.EncodeInto differs from Encode")
	}
	f := CB{GroupID: 5, FileID: 9, Major: 123}
	f.Minor[17] = 64
	var fb Block
	f.MustEncodeInto(File, &fb)
	if fb != f.MustEncode(File) {
		t.Fatal("FECB.MustEncodeInto differs from MustEncode")
	}
	// The scratch form overwrites every byte it owns: encoding a second,
	// smaller block into the same buffer must not leak earlier state.
	g := CB{}
	g.MustEncodeInto(File, &fb)
	if fb != g.MustEncode(File) {
		t.Fatal("stale bytes leaked through a reused scratch block")
	}
}

func TestEncodeIntoRejectsOversizeIDs(t *testing.T) {
	f := CB{GroupID: MaxGroupID + 1}
	var b Block
	if err := f.EncodeInto(File, &b); err == nil {
		t.Fatal("oversize group ID encoded")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustEncodeInto did not panic on oversize ID")
		}
	}()
	f.MustEncodeInto(File, &b)
}

// TestGoldenEncodings pins the 64-byte line of one memory and one file
// block to the bytes the two separate codecs (MECB.Encode, FECB.Encode)
// produced before they became one: the layout is what the Merkle leaves
// and every migrated image are made of.
func TestGoldenEncodings(t *testing.T) {
	m := CB{Major: 0x0123456789abcdef}
	f := CB{GroupID: 0x2abcd, FileID: 0x1234, Major: 0xdeadbeef}
	for i := range m.Minor {
		m.Minor[i] = uint8((i*37 + 5) & 127)
		f.Minor[i] = uint8((i*91 + 17) & 127)
	}
	for _, tc := range []struct {
		kind Kind
		cb   CB
		want string
	}{
		{Mem, m, "efcdab896745230105d5939ef18d112de99d13342f6055fd879876ccb07dd1911db16d0125e59b92f30e504df9851736aca075cd8f9c704df11de19911b3ee41"},
		{File, f, "cdabd248efbeadde11f651d4c7ce1c69e2475f852dcc41ce5dda428c7d19fa535500ef2c71e649d0c54ddc49d25f5b83ac8d21fe55d6400f3d79ea4b51066eec"},
	} {
		b := tc.cb.MustEncode(tc.kind)
		if got := hex.EncodeToString(b[:]); got != tc.want {
			t.Errorf("%v block encodes to\n%s, want\n%s", tc.kind, got, tc.want)
		}
		if got := Decode(tc.kind, b); got != tc.cb {
			t.Errorf("%v block decodes to %+v, want %+v", tc.kind, got, tc.cb)
		}
	}
}

// TestKindIsEnforced: the one struct can hold two states no line can — a
// file block whose major needs more than 32 bits, a memory block with an
// identity — and the codec refuses both, while a memory block's major keeps
// counting past the point where a file block's wraps.
func TestKindIsEnforced(t *testing.T) {
	wide := CB{Major: 1 << 32}
	if _, err := wide.Encode(File); err == nil {
		t.Fatal("33-bit file major encoded")
	}
	if _, err := wide.Encode(Mem); err != nil {
		t.Fatalf("33-bit memory major refused: %v", err)
	}
	tagged := CB{GroupID: 1}
	if _, err := tagged.Encode(Mem); err == nil {
		t.Fatal("memory block with an identity encoded")
	}
	m := CB{Major: 1<<32 - 1}
	m.Minor[3] = config.MinorCounterMax
	if r := m.Bump(Mem, 3); r.MajorWrapped || m.Major != 1<<32 {
		t.Fatalf("memory major wrapped at 32 bits: %+v major=%#x", r, m.Major)
	}
}
