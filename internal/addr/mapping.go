package addr

import "fsencr/internal/config"

// Mapping implements the RoRaBaChCo physical-to-DRAM address mapping from
// Table III: reading the physical address from least to most significant,
// the column bits come first, then channel, bank, rank, and row.
type Mapping struct {
	channels     int
	ranks        int
	banks        int
	rowBufBytes  int
	colBits      uint
	chanBits     uint
	bankBits     uint
	rankBits     uint
	lineSizeBits uint
}

// NewMapping builds a RoRaBaChCo mapping from the PCM geometry.
func NewMapping(p config.PCM) *Mapping {
	m := &Mapping{
		channels:    p.Channels,
		ranks:       p.RanksPerChan,
		banks:       p.BanksPerRank,
		rowBufBytes: p.RowBufferBytes,
	}
	m.lineSizeBits = log2(config.LineSize)
	// Column bits address lines within a row buffer.
	m.colBits = log2(uint64(p.RowBufferBytes / config.LineSize))
	m.chanBits = log2(uint64(p.Channels))
	m.bankBits = log2(uint64(p.BanksPerRank))
	m.rankBits = log2(uint64(p.RanksPerChan))
	return m
}

// Decomposed identifies the DRAM resources a line address maps to.
type Decomposed struct {
	Channel int
	Rank    int
	Bank    int
	Row     uint64
	Col     int
}

// Decompose maps a physical address (DF-bit ignored) onto channel, rank,
// bank, row, and column following RoRaBaChCo.
func (m *Mapping) Decompose(p Phys) Decomposed {
	a := uint64(p.Raw()) >> m.lineSizeBits
	var d Decomposed
	d.Col = int(a & mask(m.colBits))
	a >>= m.colBits
	d.Channel = int(a & mask(m.chanBits))
	a >>= m.chanBits
	d.Bank = int(a & mask(m.bankBits))
	a >>= m.bankBits
	d.Rank = int(a & mask(m.rankBits))
	a >>= m.rankBits
	d.Row = a
	return d
}

// Run returns the flat bank and the row of the line containing p, and how
// many lines from it on (its own included) share both: the column bits are
// the lowest, so a run ends where they wrap.
func (m *Mapping) Run(p Phys) (bank int, row uint64, lines int) {
	d := m.Decompose(p)
	return m.BankID(d), d.Row, 1<<m.colBits - d.Col
}

// BankID returns a flat bank identifier in [0, TotalBanks).
func (m *Mapping) BankID(d Decomposed) int {
	return (d.Channel*m.ranks+d.Rank)*m.banks + d.Bank
}

// TotalBanks returns the number of independently schedulable banks.
func (m *Mapping) TotalBanks() int { return m.channels * m.ranks * m.banks }

func mask(bits uint) uint64 {
	if bits >= 64 {
		return ^uint64(0)
	}
	return 1<<bits - 1
}

func log2(v uint64) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}
