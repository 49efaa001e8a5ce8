package addr

import (
	"testing"
	"testing/quick"

	"fsencr/internal/config"
)

func TestDFBit(t *testing.T) {
	p := Phys(0x1234_5678)
	if p.IsDF() {
		t.Fatal("fresh address has DF set")
	}
	d := p.WithDF()
	if !d.IsDF() {
		t.Fatal("WithDF did not set DF")
	}
	if d.Raw() != p {
		t.Fatalf("Raw() = %v, want %v", d.Raw(), p)
	}
	if uint64(d)>>config.DFBitPos != 1 {
		t.Fatal("DF bit not at bit 51")
	}
}

func TestAlignment(t *testing.T) {
	p := Phys(0x1043).WithDF()
	if p.LineAlign() != Phys(0x1040)|DFBit {
		t.Fatalf("LineAlign = %v", p.LineAlign())
	}
	if p.PageAlign() != Phys(0x1000)|DFBit {
		t.Fatalf("PageAlign = %v", p.PageAlign())
	}
	if p.PageNum() != 1 {
		t.Fatalf("PageNum = %d", p.PageNum())
	}
	if p.LineInPage() != 1 {
		t.Fatalf("LineInPage = %d", p.LineInPage())
	}
	if p.PageOffset() != 0x43 {
		t.Fatalf("PageOffset = %#x", p.PageOffset())
	}
}

func TestLineNum(t *testing.T) {
	if Phys(128).LineNum() != 2 {
		t.Fatal("LineNum(128) != 2")
	}
	if Phys(128).WithDF().LineNum() != 2 {
		t.Fatal("LineNum must strip DF")
	}
}

func TestVirtHelpers(t *testing.T) {
	v := Virt(0x2043)
	if v.PageNum() != 2 {
		t.Fatalf("PageNum = %d", v.PageNum())
	}
	if v.PageOffset() != 0x43 {
		t.Fatalf("PageOffset = %#x", v.PageOffset())
	}
	if v.LineAlign() != 0x2040 {
		t.Fatalf("LineAlign = %#x", uint64(v.LineAlign()))
	}
}

func TestPhysString(t *testing.T) {
	if s := Phys(16).String(); s != "PA:0x10" {
		t.Fatalf("String = %q", s)
	}
	if s := Phys(16).WithDF().String(); s != "PA[DF]:0x10" {
		t.Fatalf("DF String = %q", s)
	}
}

func TestMappingDecomposeBounds(t *testing.T) {
	m := NewMapping(config.Default().PCM)
	f := func(raw uint64) bool {
		p := Phys(raw & uint64(AddrMask))
		d := m.Decompose(p)
		cfg := config.Default().PCM
		if d.Channel < 0 || d.Channel >= cfg.Channels {
			return false
		}
		if d.Rank < 0 || d.Rank >= cfg.RanksPerChan {
			return false
		}
		if d.Bank < 0 || d.Bank >= cfg.BanksPerRank {
			return false
		}
		if d.Col < 0 || d.Col >= cfg.RowBufferBytes/config.LineSize {
			return false
		}
		id := m.BankID(d)
		return id >= 0 && id < m.TotalBanks()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMappingSameLineSameBank(t *testing.T) {
	m := NewMapping(config.Default().PCM)
	a := m.Decompose(Phys(0x10000))
	b := m.Decompose(Phys(0x10004)) // same line, different byte
	if a != b {
		t.Fatalf("same line decomposed differently: %+v vs %+v", a, b)
	}
}

func TestMappingAdjacentLinesInterleaveChannels(t *testing.T) {
	// With RoRaBaChCo, the channel bits sit right above the column bits;
	// consecutive lines within a row stay on one channel until the column
	// bits wrap. Verify at least that total banks is correct and rows
	// change with high bits.
	m := NewMapping(config.Default().PCM)
	if m.TotalBanks() != 2*2*8 {
		t.Fatalf("TotalBanks = %d", m.TotalBanks())
	}
	lo := m.Decompose(Phys(0))
	hi := m.Decompose(Phys(1 << 30))
	if lo.Row == hi.Row {
		t.Fatal("distant addresses mapped to the same row")
	}
}

func TestMappingDFIgnored(t *testing.T) {
	m := NewMapping(config.Default().PCM)
	a := m.Decompose(Phys(0x123440))
	b := m.Decompose(Phys(0x123440).WithDF())
	if a != b {
		t.Fatal("DF bit leaked into DRAM mapping")
	}
}

// TestMappingRun: the lines of a run all share the first line's bank and
// row, and the line after the run starts a new row buffer column sweep.
func TestMappingRun(t *testing.T) {
	m := NewMapping(config.Default().PCM)
	f := func(raw uint64) bool {
		p := Phys(raw & uint64(AddrMask) >> 1).LineAlign()
		bank, row, lines := m.Run(p)
		if lines < 1 || lines > config.Default().PCM.RowBufferBytes/config.LineSize {
			return false
		}
		for i := 0; i < lines; i++ {
			d := m.Decompose(p + Phys(i*config.LineSize))
			if m.BankID(d) != bank || d.Row != row {
				return false
			}
		}
		return m.Decompose(p+Phys(lines*config.LineSize)).Col == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
