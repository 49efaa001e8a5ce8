package memctrl

import (
	"errors"
	"testing"

	"fsencr/internal/addr"
	"fsencr/internal/aesctr"
	"fsencr/internal/config"
	"fsencr/internal/counters"
	"fsencr/internal/ott"
	"fsencr/internal/stats"
)

// buildImageSource writes file and non-file traffic into a controller with
// a fixed chip sequence and returns it.
func buildImageSource(t *testing.T, seq uint64) *Controller {
	t.Helper()
	cfg := config.Default()
	mode := Mode{MemEncryption: true, FileEncryption: true}
	c := NewWithChipSeq(cfg, mode, stats.NewSet(), seq)
	key := aesctr.Key{1, 2, 3, 4}
	c.InstallKey(0, 7, 3, key)
	now := config.Cycle(0)
	var line aesctr.Line
	for i := 0; i < 64; i++ {
		for j := range line {
			line[j] = byte(i + j)
		}
		pa := addr.Phys(i * config.LineSize)
		now = c.WriteLine(now, pa, line)
	}
	// File lines through the DF datapath for page 2.
	now = c.TagPage(now, addr.Phys(2*config.PageSize), 7, 3)
	for i := 0; i < 8; i++ {
		for j := range line {
			line[j] = byte(0xa0 + i + j)
		}
		pa := (addr.Phys(2*config.PageSize + i*config.LineSize)).WithDF()
		now = c.WriteLine(now, pa, line)
	}
	// ExportImage mutates nothing; sealing the OTT is the exporter's job.
	c.FlushOTT()
	return c
}

// TestImageRoundTrip exports an image, imports it into a fresh controller
// with the same chip sequence, and checks plaintext and root equivalence,
// the digest of a re-export, and the recovery gate.
func TestImageRoundTrip(t *testing.T) {
	const seq = 4242
	src := buildImageSource(t, seq)
	img, err := src.ExportImage()
	if err != nil {
		t.Fatalf("export: %v", err)
	}

	cfg := config.Default()
	mode := Mode{MemEncryption: true, FileEncryption: true}
	dst := NewWithChipSeq(cfg, mode, stats.NewSet(), seq)
	if err := dst.ImportImage(img); err != nil {
		t.Fatalf("import: %v", err)
	}
	if dst.MerkleRoot() != src.MerkleRoot() {
		t.Fatalf("root mismatch after import")
	}
	// Plaintext equivalence through the live datapath.
	pa := addr.Phys(3 * config.LineSize)
	want, _ := src.ReadLine(0, pa)
	got, _ := dst.ReadLine(0, pa)
	if want != got {
		t.Fatalf("plaintext mismatch after import: %x vs %x", want[:8], got[:8])
	}
	fpa := (addr.Phys(2 * config.PageSize)).WithDF()
	want, _ = src.ReadLine(0, fpa)
	got, _ = dst.ReadLine(0, fpa)
	if want != got {
		t.Fatalf("file plaintext mismatch after import: %x vs %x", want[:8], got[:8])
	}

	if again, err := dst.ExportImage(); err != nil || again.Digest() != img.Digest() {
		t.Fatalf("the imported controller's image digests differently (%v)", err)
	}

	// The non-destructive cutover gate must pass on the image.
	if err := VerifyImage(cfg, mode, img); err != nil {
		t.Fatalf("VerifyImage: %v", err)
	}
}

// TestImageDigest: two exports of the same state digest equal, and a
// change to any single field of the image — one frame byte, one counter
// minor, one ECC tag, one OTT entry, one sealed bucket, the root, the chip
// sequence — changes the digest.
func TestImageDigest(t *testing.T) {
	export := func() *Image {
		img, err := buildImageSource(t, 4242).ExportImage()
		if err != nil {
			t.Fatalf("export: %v", err)
		}
		return img
	}
	want := export().Digest()
	if export().Digest() != want {
		t.Fatal("two exports of the same state digest differently")
	}
	anyKey := func(m map[uint64][]byte) uint64 {
		for k := range m {
			return k
		}
		t.Fatal("empty map")
		return 0
	}
	mutations := map[string]func(*Image){
		"frame byte": func(img *Image) { img.Frames[anyKey(img.Frames)][100] ^= 1 },
		"counter minor": func(img *Image) {
			for slot, b := range img.Counters {
				b.Minor[5]++
				img.Counters[slot] = b
				return
			}
		},
		"ECC tag": func(img *Image) {
			for line := range img.ECC {
				img.ECC[line] ^= 1
				return
			}
		},
		"OTT entry": func(img *Image) { img.Entries[0].Key[0] ^= 1 },
		"sealed bucket": func(img *Image) {
			for _, b := range img.Buckets {
				if len(b) > 0 {
					b[0][0] ^= 1
					return
				}
			}
		},
		"root":     func(img *Image) { img.Root[0] ^= 1 },
		"chip seq": func(img *Image) { img.ChipSeq++ },
	}
	for name, mutate := range mutations {
		img := export()
		if len(img.Entries) == 0 || len(img.Counters) == 0 || len(img.ECC) == 0 {
			t.Fatal("the source image lacks a field the test mutates")
		}
		mutate(img)
		if img.Digest() == want {
			t.Errorf("%s: a changed image digests like the original", name)
		}
	}
}

// TestImageRejectsWrongChip checks an image cannot rehydrate under
// different processor keys.
func TestImageRejectsWrongChip(t *testing.T) {
	src := buildImageSource(t, 777)
	img, err := src.ExportImage()
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	cfg := config.Default()
	mode := Mode{MemEncryption: true, FileEncryption: true}
	dst := NewWithChipSeq(cfg, mode, stats.NewSet(), 778)
	if err := dst.ImportImage(img); err == nil {
		t.Fatalf("import under a different chip seq must be rejected")
	}
}

// imageEdit is one field-level corruption of an exported image, in the
// flat form the fuzzer mutates.
type imageEdit struct {
	field uint8  // which part of the image, modulo the cases of apply
	key   uint64 // page or line number the edit lands on
	a     uint64 // major counter, frame length, ECC tag, bucket count...
	id    uint32 // group ID; its low 16 bits double as the file ID
	minor uint8  // value stored in minor counter key%64
}

func (e imageEdit) apply(img *Image) {
	switch e.field % 7 {
	case 0, 1: // page key's file (0) or memory (1) counter block
		b := counters.CB{GroupID: e.id, FileID: uint16(e.id), Major: e.a}
		b.Minor[e.key%config.LinesPerPage] = e.minor
		slot := fileSlot(e.key)
		if e.field%7 == 1 {
			slot = memSlot(e.key)
		}
		img.Counters[slot] = b
	case 2:
		img.Frames[e.key] = make([]byte, e.a%(4*config.PageSize))
	case 3:
		img.ECC[e.key] = e.a
	case 4:
		img.Buckets = img.Buckets[:e.a%uint64(len(img.Buckets)+1)]
	case 5:
		img.Entries = append(img.Entries, ott.Entry{Group: e.id, File: uint16(e.id)})
	case 6:
		img.Root[e.key%uint64(len(img.Root))] ^= e.minor
	}
}

// rejectedEdits each make an export of buildImageSource invalid in one
// field. The first two used to panic inside ImportImage (the counter codec,
// the Merkle tree); the three-page frame used to be silently truncated.
var rejectedEdits = map[string]imageEdit{
	"group over 18 bits":    {field: 0, key: 3, id: 1 << 20},
	"MECB outside device":   {field: 1, key: 1 << 40},
	"three-page frame":      {field: 2, key: 0, a: 3 * config.PageSize},
	"file over 14 bits":     {field: 0, key: 2, id: 1 << 14},
	"FECB outside device":   {field: 0, key: MaxDataBytes / config.PageSize},
	"minor over 7 bits":     {field: 1, key: 9, minor: config.MinorCounterMax + 1},
	"ECC tag outside":       {field: 3, key: MaxDataBytes / config.LineSize, a: 1},
	"frame in metadata":     {field: 2, key: MetaBase / config.PageSize, a: config.PageSize},
	"short OTT bucket list": {field: 4, a: 1},
	"root flipped":          {field: 6, minor: 1},
	// The two states one counter-block struct can hold that neither kind's
	// line can; unrepresentable, so not compilable, before the types merged.
	"file major over 32 bits":  {field: 0, key: 2, a: 1 << 32},
	"identity on memory block": {field: 1, key: 9, id: 5},
}

// TestImportImageFailsClosed: an image a malicious or broken peer could
// send is refused with ErrImageRejected before any of it is installed —
// never a panic, never a half-imported controller.
func TestImportImageFailsClosed(t *testing.T) {
	const seq = 991
	mode := Mode{MemEncryption: true, FileEncryption: true}
	for name, edit := range rejectedEdits {
		t.Run(name, func(t *testing.T) {
			img, err := buildImageSource(t, seq).ExportImage()
			if err != nil {
				t.Fatalf("export: %v", err)
			}
			edit.apply(img)
			dst := NewWithChipSeq(config.Default(), mode, stats.NewSet(), seq)
			fresh := dst.MerkleRoot()
			if err := dst.ImportImage(img); !errors.Is(err, ErrImageRejected) {
				t.Fatalf("ImportImage = %v, want ErrImageRejected", err)
			}
			if edit.field != 6 && (dst.PCM.FramesTouched() != 0 || len(dst.ctr) != 0 || len(dst.ecc) != 0 || dst.ottRegion.Len() != 0 || dst.MerkleRoot() != fresh) {
				t.Fatal("an image that fails validation was partly installed")
			}
		})
	}
}

// FuzzImportImage corrupts a real export one field at a time (seeded with
// the untouched export and the rejected edits above). Whatever arrives, the
// outcome is an error or a controller whose Merkle root is the image's —
// never a panic. An image has no wire form (it never leaves the node that
// exported it), so it is edited field by field.
func FuzzImportImage(f *testing.F) {
	const seq = 4242
	f.Add(uint8(6), uint64(0), uint64(0), uint32(0), uint8(0)) // the export as it is
	for _, e := range rejectedEdits {
		f.Add(e.field, e.key, e.a, e.id, e.minor)
	}
	cfg := config.Default()
	mode := Mode{MemEncryption: true, FileEncryption: true}
	f.Fuzz(func(t *testing.T, field uint8, key, a uint64, id uint32, minor uint8) {
		img, err := buildImageSource(t, seq).ExportImage()
		if err != nil {
			t.Fatalf("export: %v", err)
		}
		imageEdit{field, key, a, id, minor}.apply(img)
		c := NewWithChipSeq(cfg, mode, stats.NewSet(), seq)
		if err := c.ImportImage(img); err == nil && c.MerkleRoot() != img.Root {
			t.Fatalf("image accepted with root %x, controller holds %x", img.Root, c.MerkleRoot())
		}
	})
}
