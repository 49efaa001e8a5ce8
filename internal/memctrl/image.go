package memctrl

// Module images: a plain-data snapshot of everything the NVM module side of
// a controller holds — device frames (ciphertext), counter blocks, ECC
// tags, OTT entries and the sealed OTT region — plus the Merkle root and the
// chip key-derivation sequence.
//
// Unlike Transport (lifecycle.go), which hands live pointers to a
// destination controller, an Image is a copy, and it stays on the node that
// exported it: it is never sent anywhere. A migration rebuilds a shard by
// replaying the admission log; the source and the new owner each export
// their own image and compare Digests, and the new owner's image must pass
// VerifyImage, the Osiris recovery gate, on a scratch controller.

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"fsencr/internal/config"
	"fsencr/internal/counters"
	"fsencr/internal/merkle"
	"fsencr/internal/ott"
	"fsencr/internal/stats"
)

// Image is the plain-data module snapshot.
type Image struct {
	// ChipSeq is the key-derivation sequence of the source controller. A
	// controller can only import an image whose ChipSeq matches its own:
	// with different processor keys neither the ciphertext nor the sealed
	// OTT records would authenticate.
	ChipSeq uint64
	// Root is the Merkle root over the metadata region at export time.
	Root merkle.Hash
	// Frames holds the device contents (ciphertext), keyed by page number.
	Frames map[uint64][]byte
	// Counters are the current counter blocks by slot (page p's MECB is
	// slot 2p, its FECB slot 2p+1).
	Counters map[uint64]counters.CB
	// ECC maps raw line numbers to their ECC-embedded check tags.
	ECC map[uint64]uint64
	// Entries are the on-chip OTT entries; Buckets is the sealed region.
	Entries []ott.Entry
	Buckets [][]ott.Sealed
}

// FlushOTT seals every on-chip OTT entry into the encrypted region and
// folds the buckets into the Merkle tree — the shutdown/export persist
// path, exposed so a shard can run it as an admission-log step (the
// replayer must execute the identical flush to reproduce the root).
func (c *Controller) FlushOTT() {
	if c.ottTable == nil {
		return
	}
	for _, e := range c.ottTable.Entries() {
		bucket := c.ottRegion.Store(e)
		c.updateOTTLeaf(bucket)
	}
}

// ExportImage snapshots the controller into a plain-data image. The
// caller must have quiesced the datapath, flushed dirty cache lines, and
// run FlushOTT first (the shard fabric runs its flush log-record before
// exporting, which does all three). ExportImage itself mutates nothing —
// deliberately: the export is not an admission-log record, so any counter
// it perturbed would diverge a resumed source from its own log.
func (c *Controller) ExportImage() (*Image, error) {
	if !c.mode.FileEncryption {
		return nil, errors.New("memctrl: image export requires the FsEncr datapath")
	}
	img := &Image{
		ChipSeq:  c.chipSeq,
		Root:     c.mt.Root(),
		Frames:   c.PCM.ExportFrames(),
		Counters: make(map[uint64]counters.CB, len(c.ctr)),
		ECC:      eccLines(c.ecc),
		Entries:  c.ottTable.Entries(),
		Buckets:  c.ottRegion.ExportTable(),
	}
	for slot, b := range c.ctr {
		img.Counters[slot] = *b
	}
	return img, nil
}

// eccLines flattens the controller's per-page tag store into the image's
// form, raw line number -> tag; eccPages is its inverse.
func eccLines(pages map[uint64]*eccPage) map[uint64]uint64 {
	n := 0
	for _, p := range pages {
		n += bits.OnesCount64(p.have)
	}
	lines := make(map[uint64]uint64, n)
	for page, p := range pages {
		for have := p.have; have != 0; have &= have - 1 {
			li := bits.TrailingZeros64(have)
			lines[page*config.LinesPerPage+uint64(li)] = p.tag[li]
		}
	}
	return lines
}

func eccPages(lines map[uint64]uint64) map[uint64]*eccPage {
	pages := make(map[uint64]*eccPage, len(lines)/config.LinesPerPage)
	for line, tag := range lines {
		page, li := line/config.LinesPerPage, line%config.LinesPerPage
		p := pages[page]
		if p == nil {
			p = new(eccPage)
			pages[page] = p
		}
		p.tag[li] = tag
		p.have |= 1 << li
	}
	return pages
}

// Digest is a sha256 over every field of the image — chip sequence, Merkle
// root, device frames, counter blocks, ECC tags, OTT entries and sealed
// region — in one canonical order (maps by ascending key, every variable
// length prefixed), so two images digest equal exactly when they describe
// the same module state. A migration compares the source's digest with the
// new owner's: the gate that catches data-content divergence the Merkle
// root, which covers only the metadata region, cannot vouch for.
func (img *Image) Digest() [32]byte {
	h := sha256.New()
	w := func(v any) {
		// Every value is fixed-size; one that is not would be left out.
		if err := binary.Write(h, binary.LittleEndian, v); err != nil {
			panic(err)
		}
	}
	w(img.ChipSeq)
	w(img.Root)
	w(uint64(len(img.Frames)))
	for _, page := range sortedKeys(img.Frames) {
		w(page)
		w(uint64(len(img.Frames[page])))
		h.Write(img.Frames[page])
	}
	w(uint64(len(img.Counters)))
	for _, slot := range sortedKeys(img.Counters) {
		w(slot)
		w(img.Counters[slot])
	}
	w(uint64(len(img.ECC)))
	for _, line := range sortedKeys(img.ECC) {
		w([2]uint64{line, img.ECC[line]})
	}
	w(uint64(len(img.Entries)))
	w(img.Entries)
	w(uint64(len(img.Buckets)))
	for _, bucket := range img.Buckets {
		w(uint64(len(bucket)))
		w(bucket)
	}
	var d [32]byte
	h.Sum(d[:0])
	return d
}

func sortedKeys[V any](m map[uint64]V) []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// ErrImageRejected reports an image that does not authenticate against
// this controller: wrong chip sequence (keys), a field outside what the
// device and the counter encodings can hold, or a regenerated Merkle root
// that disagrees with the image's.
var ErrImageRejected = errors.New("memctrl: image rejected")

// validate range-checks everything ImportImage would otherwise index or
// encode with: an image is plain data anyone holding it can edit, and an
// out-of-range page, identity or counter must be an error here, not a panic
// in the Merkle tree or the counter codec later.
func (img *Image) validate() error {
	const pages, lines = MaxDataBytes / config.PageSize, MaxDataBytes / config.LineSize
	for page, frame := range img.Frames {
		// The device holds bytes in the data space and the audit-log region
		// only; the metadata regions between them are timing-only.
		inAudit := page >= AuditBase/config.PageSize && page < 2*AuditBase/config.PageSize
		if (page >= pages && !inAudit) || len(frame) != config.PageSize {
			return fmt.Errorf("frame %d (%d bytes) outside the device or not one page", page, len(frame))
		}
	}
	// A counter block must be what the 64-byte line of its slot's kind can
	// hold: it round-trips through the codec under that kind (7-bit minors;
	// an 18-bit group, 14-bit file and 32-bit major in a file block; no
	// identity in a memory block). The one struct can say more than either
	// line, and such a block would panic the codec at its first fetch.
	for slot, b := range img.Counters {
		kind := slotKind(slot)
		if line, err := b.Encode(kind); slot >= counterSlots || err != nil || counters.Decode(kind, line) != b {
			return fmt.Errorf("%v counter block of page %d outside the device or not encodable", kind, slot/2)
		}
	}
	for line := range img.ECC {
		if line >= lines {
			return fmt.Errorf("ECC tag for line %d outside the device", line)
		}
	}
	return nil
}

// ImportImage adopts an image into a freshly built controller with the
// same configuration and chip sequence: device contents, counters, ECC
// tags and the sealed OTT region are installed, every counter is treated
// as durable, and the Merkle tree is regenerated and verified against the
// image root before the controller serves anything.
func (c *Controller) ImportImage(img *Image) error {
	if !c.mode.FileEncryption {
		return errors.New("memctrl: image import requires the FsEncr datapath")
	}
	if img.ChipSeq != c.chipSeq {
		return fmt.Errorf("%w: chip seq %d != %d", ErrImageRejected, img.ChipSeq, c.chipSeq)
	}
	// Everything that can fail without the keys fails before anything is
	// installed.
	if err := img.validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrImageRejected, err)
	}
	if err := c.ottRegion.ImportTable(img.Buckets); err != nil {
		return fmt.Errorf("%w: %v", ErrImageRejected, err)
	}
	c.PCM.ImportFrames(img.Frames)
	ctr := make(map[uint64]*counters.CB, len(img.Counters))
	for slot, b := range img.Counters {
		bb := b
		ctr[slot] = &bb
	}
	if !c.install(ctr, img.ECC, img.Entries, img.Root) {
		return fmt.Errorf("%w: regenerated Merkle root mismatch", ErrImageRejected)
	}
	return nil
}

// VerifyImage is the migration cutover gate: it rehydrates the image into
// a scratch controller (same config, mode and chip sequence), then runs
// the full crash/recovery cycle — Crash(true), Osiris Recover, and
// VerifyRecovery — against it. Success proves the image's frames, counter
// blocks, ECC tags and sealed OTT region are mutually consistent and
// recoverable, without ever touching the live controller.
func VerifyImage(cfg config.Config, mode Mode, img *Image) error {
	c := NewWithChipSeq(cfg, mode, stats.NewSet(), img.ChipSeq)
	if err := c.ImportImage(img); err != nil {
		return err
	}
	c.Crash(true)
	if err := c.Recover(); err != nil {
		return fmt.Errorf("memctrl: image recovery gate: %w", err)
	}
	if err := c.VerifyRecovery(); err != nil {
		return fmt.Errorf("memctrl: image recovery gate: %w", err)
	}
	return nil
}
