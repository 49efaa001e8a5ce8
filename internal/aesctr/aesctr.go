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
// An Engine is immutable after New, so any number of goroutines may share
// one: every pad is built in the caller's buffer.
type Engine struct {
	// block is the stdlib cipher: single-block OTT sealing, and the
	// reference loop that is the kernel wherever no assembly one exists.
	block   cipher.Block
	latency config.Cycle
	// rk is the expanded key schedule the assembly kernel reads.
	rk [176]byte
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
	e := &Engine{block: b, latency: latency}
	e.expandKey(&key)
	return e
}

// Latency returns the engine's AES latency in cycles.
func (e *Engine) Latency() config.Cycle { return e.latency }

// encryptBlocksRef is encryptBlocks as one crypto/aes call per block: the
// kernel on every target and CPU without an assembly one, and the reference
// the tests hold the assembly to.
func (e *Engine) encryptBlocksRef(buf []byte) {
	for ; len(buf) >= aes.BlockSize; buf = buf[aes.BlockSize:] {
		e.block.Encrypt(buf[:aes.BlockSize], buf[:aes.BlockSize])
	}
}

// Line is one 64-byte cache line.
type Line [config.LineSize]byte

// Page is one 4 KB page of data — 64 consecutive lines. The batched
// page-granularity datapath moves whole pages through the controller with
// one call instead of 64.
type Page [config.PageSize]byte

// otpLines fills dst with the one-time pads of the len(minors) consecutive
// lines of page pageID starting at line li0, minors[i] being line li0+i's
// minor counter. It is the only place the Figure-2 IV layout is written: a
// line's four counter blocks (64 B / 16 B) go straight into its 64 bytes of
// dst, then one kernel call encrypts them all in place — hardware runs a
// line's four blocks in parallel too, so its latency is one AES traversal.
//
// A counter block is two little-endian words. Word 0 is the page ID; word 1
// is line index (byte 8), minor (9), domain (10), the major's low 32 bits
// (11..14) and the AES-block index (15). Memory-encryption majors are 64-bit
// but never overflow 32 bits within a device lifetime; the high bits are
// folded into the page-ID lane for functional completeness.
func (e *Engine) otpLines(dst []byte, pageID uint64, li0 int, major uint64, minors []uint8, domain uint8) {
	dst = dst[:len(minors)*config.LineSize]
	w0 := pageID ^ (major >> 32 << 48)
	w1 := uint64(domain)<<16 | uint64(uint32(major))<<24
	for i, minor := range minors {
		line := (*Line)(dst[i*config.LineSize:])
		w := w1 | uint64(uint8(li0+i)) | uint64(minor)<<8
		binary.LittleEndian.PutUint64(line[0:], w0)
		binary.LittleEndian.PutUint64(line[8:], w)
		binary.LittleEndian.PutUint64(line[16:], w0)
		binary.LittleEndian.PutUint64(line[24:], w|1<<56)
		binary.LittleEndian.PutUint64(line[32:], w0)
		binary.LittleEndian.PutUint64(line[40:], w|2<<56)
		binary.LittleEndian.PutUint64(line[48:], w0)
		binary.LittleEndian.PutUint64(line[56:], w|3<<56)
	}
	e.encryptBlocks(dst)
}

// OTPInto fills dst with the 64-byte one-time pad for iv.
func (e *Engine) OTPInto(dst *Line, iv IV) {
	e.otpLines(dst[:], iv.PageID, int(iv.LineInPage), iv.Major, []uint8{iv.Minor}, iv.Domain)
}

// OTPLinesInto fills dst with the one-time pads for the len(dst)/64
// consecutive lines of a page starting at line li0, byte-identical to one
// OTPInto call per line with the corresponding IV — the batching amortizes
// host work, it never changes the keystream.
func (e *Engine) OTPLinesInto(dst []byte, pageID uint64, li0 int, major uint64, minors *[config.LinesPerPage]uint8, domain uint8) {
	e.otpLines(dst, pageID, li0, major, minors[li0:li0+len(dst)/config.LineSize], domain)
}

// OTPPageInto is OTPLinesInto over all 64 lines of a page.
func (e *Engine) OTPPageInto(dst *Page, pageID uint64, major uint64, minors *[config.LinesPerPage]uint8, domain uint8) {
	e.otpLines(dst[:], pageID, 0, major, minors[:], domain)
}

// XORBytes sets dst ^= src over their common length (a whole number of
// lines in the datapath).
func XORBytes(dst, src []byte) { subtle.XORBytes(dst, dst, src) }

// XORPageInto sets dst ^= src across a whole page — the page-granularity
// companion of XORInto.
func XORPageInto(dst, src *Page) { XORBytes(dst[:], src[:]) }

// XORInto sets dst ^= src in place, eight bytes at a lane.
func XORInto(dst, src *Line) {
	for i := 0; i < config.LineSize; i += 8 {
		v := binary.LittleEndian.Uint64(dst[i:i+8]) ^ binary.LittleEndian.Uint64(src[i:i+8])
		binary.LittleEndian.PutUint64(dst[i:i+8], v)
	}
}

// EncryptBlock16 encrypts a single 16-byte block in ECB fashion; used only
// for sealing OTT entries (fixed-size records) where CTR counters are not
// available. Each OTT record embeds its slot index for spatial uniqueness.
func (e *Engine) EncryptBlock16(dst, src []byte) { e.block.Encrypt(dst, src) }

// DecryptBlock16 reverses EncryptBlock16.
func (e *Engine) DecryptBlock16(dst, src []byte) { e.block.Decrypt(dst, src) }
