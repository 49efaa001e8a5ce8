// Package aesctr implements the counter-mode encryption engine used by both
// the memory-encryption and file-encryption datapaths (Figure 2 of the
// paper). An Initialization Vector built from {page ID, page offset, major
// counter, minor counter} is run through AES-128 to produce a 64-byte
// one-time pad (OTP), which is XORed with the cache-line data. The AES work
// can start as soon as the counters are known, so with a metadata-cache hit
// the OTP generation overlaps the memory array access and only the final XOR
// is exposed.
//
// Encryption here is functional, not just a latency annotation: the bytes
// stored in the simulated NVM are real AES-CTR ciphertext.
package aesctr

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"encoding/binary"

	"fsencr/internal/config"
)

// Key is a 128-bit AES key.
type Key [config.KeySize]byte

// IV carries the spatial and temporal uniqueness fields of Figure 2.
type IV struct {
	// PageID provides spatial uniqueness across pages: the physical page
	// number for memory encryption, and likewise for file encryption (the
	// paper keeps physical-address spatial uniqueness even for file
	// counters, which is what makes same-device file copies safe, §VI).
	PageID uint64
	// LineInPage provides spatial uniqueness within the page (0..63).
	LineInPage uint8
	// Major is the per-page major counter.
	Major uint64
	// Minor is the per-line 7-bit minor counter.
	Minor uint8
	// Domain separates keyspaces (memory vs file vs OTT-region encryption)
	// so identical counters under different engines can never collide.
	Domain uint8
}

// Domain tags for IV.Domain.
const (
	DomainMemory   = 1
	DomainFile     = 2
	DomainOTT      = 3
	DomainSoftware = 4
)

// Engine is one AES-CTR encryption engine (the paper instantiates a Memory
// Encryption Engine and a File Encryption Engine; the OTT region sealing
// uses a third with the processor-resident OTT key).
//
// An Engine is not safe for concurrent use: OTP generation reuses an
// internal counter-block buffer. That matches the simulator's isolation
// invariant — every engine belongs to exactly one memory controller, and
// each simulated system runs on a single goroutine even when the parallel
// experiment runner executes many systems at once.
type Engine struct {
	block   cipher.Block
	latency config.Cycle
	// ctr is the reusable counter-block buffer for OTPInto; every byte is
	// rewritten per call, so it never needs clearing.
	ctr [16]byte
}

// New returns an engine keyed with key. latency is the hardware AES latency
// (Table III: 40 ns) exposed when OTP generation cannot be overlapped.
func New(key Key, latency config.Cycle) *Engine {
	b, err := aes.NewCipher(key[:])
	if err != nil {
		// aes.NewCipher only fails on invalid key sizes, which the Key
		// array type rules out.
		panic("aesctr: " + err.Error())
	}
	return &Engine{block: b, latency: latency}
}

// Latency returns the engine's AES latency in cycles.
func (e *Engine) Latency() config.Cycle { return e.latency }

// Fork returns an engine sharing this one's key schedule but with its own
// counter-block buffer, so a reader goroutine can generate OTPs
// concurrently with the owner. cipher.Block is stateless after key
// expansion; only the ctr scratch makes Engine single-goroutine.
func (e *Engine) Fork() *Engine {
	return &Engine{block: e.block, latency: e.latency}
}

// Line is one 64-byte cache line.
type Line [config.LineSize]byte

// OTPInto fills dst with the 64-byte one-time pad for iv. Four AES blocks
// are generated (64 B / 16 B); hardware runs them in parallel so the
// latency is a single AES traversal. This is the datapath's hot entry
// point: it writes straight into the caller's buffer, sparing the 64-byte
// return copy that OTP pays per access.
func (e *Engine) OTPInto(dst *Line, iv IV) {
	ctr := e.ctr[:]
	// Major occupies bytes 11..14 (32 bits); byte 15 is the AES-block
	// index. Memory-encryption majors are 64-bit but never overflow 32 bits
	// within a device lifetime; the high bits are folded into the page-ID
	// lane for functional completeness.
	binary.LittleEndian.PutUint64(ctr[0:8], iv.PageID^(iv.Major>>32<<48))
	ctr[8] = iv.LineInPage
	ctr[9] = iv.Minor
	ctr[10] = iv.Domain
	binary.LittleEndian.PutUint32(ctr[11:15], uint32(iv.Major))
	for blk := 0; blk < config.LineSize/16; blk++ {
		ctr[15] = byte(blk)
		e.block.Encrypt(dst[blk*16:(blk+1)*16], ctr)
	}
}

// Page is one 4 KB page of data — 64 consecutive lines. The batched
// page-granularity datapath moves whole pages through the controller with
// one call instead of 64.
type Page [config.PageSize]byte

// OTPLinesInto fills dst with the one-time pads for the len(dst)/64
// consecutive lines of a page starting at line li0, in one pass: the
// counter-block template (page ID, major counter, domain) is built once, and
// only the per-line lane (line index, minor counter) and the per-block index
// are rewritten inside the loop. The output is byte-identical to one OTPInto
// call per line with the corresponding IV — the batching amortizes host
// work, it never changes the keystream.
func (e *Engine) OTPLinesInto(dst []byte, pageID uint64, li0 int, major uint64, minors *[config.LinesPerPage]uint8, domain uint8) {
	ctr := e.ctr[:]
	binary.LittleEndian.PutUint64(ctr[0:8], pageID^(major>>32<<48))
	ctr[10] = domain
	binary.LittleEndian.PutUint32(ctr[11:15], uint32(major))
	for base := 0; base < len(dst); base += config.LineSize {
		li := li0 + base/config.LineSize
		ctr[8] = uint8(li)
		ctr[9] = minors[li]
		for blk := 0; blk < config.LineSize/16; blk++ {
			ctr[15] = byte(blk)
			e.block.Encrypt(dst[base+blk*16:base+(blk+1)*16], ctr)
		}
	}
}

// OTPPageInto is OTPLinesInto over all 64 lines of a page.
func (e *Engine) OTPPageInto(dst *Page, pageID uint64, major uint64, minors *[config.LinesPerPage]uint8, domain uint8) {
	e.OTPLinesInto(dst[:], pageID, 0, major, minors, domain)
}

// XORBytes sets dst ^= src over their common length (a whole number of
// lines in the datapath).
func XORBytes(dst, src []byte) { subtle.XORBytes(dst, dst, src) }

// XORPageInto sets dst ^= src across a whole page — the page-granularity
// companion of XORInto.
func XORPageInto(dst, src *Page) { XORBytes(dst[:], src[:]) }

// OTP generates the 64-byte one-time pad for iv.
func (e *Engine) OTP(iv IV) Line {
	var pad Line
	e.OTPInto(&pad, iv)
	return pad
}

// XORInto sets dst ^= src in place, eight bytes at a lane. The memory
// controller's per-line datapath uses it to combine and strip OTPs without
// the three 64-byte copies per access that XOR's by-value signature forces.
func XORInto(dst, src *Line) {
	for i := 0; i < config.LineSize; i += 8 {
		v := binary.LittleEndian.Uint64(dst[i:i+8]) ^ binary.LittleEndian.Uint64(src[i:i+8])
		binary.LittleEndian.PutUint64(dst[i:i+8], v)
	}
}

// XOR returns a ^ b.
func XOR(a, b Line) Line {
	XORInto(&a, &b)
	return a
}

// Apply encrypts or decrypts data with the pad (the operation is its own
// inverse in CTR mode).
func (e *Engine) Apply(data Line, iv IV) Line {
	var pad Line
	e.OTPInto(&pad, iv)
	XORInto(&data, &pad)
	return data
}

// EncryptBlock16 encrypts a single 16-byte block in ECB fashion; used only
// for sealing OTT entries (fixed-size records) where CTR counters are not
// available. Each OTT record embeds its slot index for spatial uniqueness.
func (e *Engine) EncryptBlock16(dst, src []byte) { e.block.Encrypt(dst, src) }

// DecryptBlock16 reverses EncryptBlock16.
func (e *Engine) DecryptBlock16(dst, src []byte) { e.block.Decrypt(dst, src) }
