package memctrl

import (
	"errors"
	"testing"

	"fsencr/internal/addr"
	"fsencr/internal/config"
)

func TestRotateFileKeyPreservesPlaintext(t *testing.T) {
	c := newMC(Mode{MemEncryption: true, FileEncryption: true})
	pa := addr.Phys(0x800000).WithDF()
	oldKey, newKey := fileKey(1), fileKey(2)
	c.InstallKey(0, 3, 3, oldKey)
	c.TagPage(0, pa, 3, 3)
	c.WriteLine(0, pa, lineOf(5))
	c.WriteLine(0, pa+64, lineOf(6))
	ctBefore := c.RawLine(pa)

	c.RotateFileKey(0, pa, 3, 3, oldKey, newKey)
	c.InstallKey(0, 3, 3, newKey)

	got, _ := c.ReadLine(0, pa)
	if got != lineOf(5) {
		t.Fatal("line 0 corrupted by rotation")
	}
	got, _ = c.ReadLine(0, pa+64)
	if got != lineOf(6) {
		t.Fatal("line 1 corrupted by rotation")
	}
	if c.RawLine(pa) == ctBefore {
		t.Fatal("ciphertext unchanged by rotation")
	}
	// Counters were reset.
	_, minors, _, _ := c.CountersForPage(pa.PageNum())
	_ = minors
	if c.IntegrityViolations() != 0 {
		t.Fatal("integrity violations during rotation")
	}
}

func TestRotateThenCrashRecovers(t *testing.T) {
	c := newMC(Mode{MemEncryption: true, FileEncryption: true})
	pa := addr.Phys(0x900000).WithDF()
	oldKey, newKey := fileKey(3), fileKey(4)
	c.InstallKey(0, 4, 4, oldKey)
	c.TagPage(0, pa, 4, 4)
	for v := 0; v < 10; v++ {
		c.WriteLine(0, pa, lineOf(byte(v)))
	}
	c.RotateFileKey(0, pa, 4, 4, oldKey, newKey)
	c.InstallKey(0, 4, 4, newKey)
	c.WriteLine(0, pa, lineOf(99))
	c.Crash(true)
	if err := c.Recover(); err != nil {
		t.Fatalf("recover after rotation: %v", err)
	}
	got, _ := c.ReadLine(0, pa)
	if got != lineOf(99) {
		t.Fatal("post-rotation write lost across crash")
	}
}

func TestExportImport(t *testing.T) {
	src := newMC(Mode{MemEncryption: true, FileEncryption: true})
	pa := addr.Phys(0xA00000).WithDF()
	src.InstallKey(0, 5, 5, fileKey(5))
	src.TagPage(0, pa, 5, 5)
	src.WriteLine(0, pa, lineOf(7))
	npa := addr.Phys(0xB00000)
	src.WriteLine(0, npa, lineOf(8))

	transport, err := src.Export()
	if err != nil {
		t.Fatal(err)
	}
	dst := newMC(Mode{MemEncryption: true, FileEncryption: true})
	if err := dst.Import(transport); err != nil {
		t.Fatalf("import: %v", err)
	}
	got, _ := dst.ReadLine(0, pa)
	if got != lineOf(7) {
		t.Fatal("file line unreadable on destination machine")
	}
	got, _ = dst.ReadLine(0, npa)
	if got != lineOf(8) {
		t.Fatal("memory line unreadable on destination machine")
	}
	// Destination keeps working: new writes and key operations.
	dst.WriteLine(0, pa, lineOf(9))
	got, _ = dst.ReadLine(0, pa)
	if got != lineOf(9) {
		t.Fatal("destination writes broken after import")
	}
	if dst.IntegrityViolations() != 0 {
		t.Fatal("integrity violations after import")
	}
}

func TestImportRejectsTamperedModule(t *testing.T) {
	src := newMC(Mode{MemEncryption: true, FileEncryption: true})
	pa := addr.Phys(0xC00000)
	src.WriteLine(0, pa, lineOf(1))
	transport, err := src.Export()
	if err != nil {
		t.Fatal(err)
	}
	// Attacker swaps counter state in transit.
	for _, m := range transport.ctr {
		m.Minor[0] ^= 1
	}
	dst := newMC(Mode{MemEncryption: true, FileEncryption: true})
	if err := dst.Import(transport); !errors.Is(err, ErrTransportRejected) {
		t.Fatalf("tampered transport accepted: %v", err)
	}
}

func TestImportWithoutFileDatapathFails(t *testing.T) {
	src := newMC(Mode{MemEncryption: true, FileEncryption: true})
	transport, err := src.Export()
	if err != nil {
		t.Fatal(err)
	}
	dst := newMC(Mode{MemEncryption: true})
	if err := dst.Import(transport); err == nil {
		t.Fatal("import into non-FsEncr controller succeeded")
	}
}

func TestDistinctControllersHaveDistinctKeys(t *testing.T) {
	a := newMC(Mode{MemEncryption: true})
	b := newMC(Mode{MemEncryption: true})
	pa := addr.Phys(0xD00000)
	a.WriteLine(0, pa, lineOf(1))
	b.WriteLine(0, pa, lineOf(1))
	if a.RawLine(pa) == b.RawLine(pa) {
		t.Fatal("two chips encrypted identically (shared fuses?)")
	}
	_ = config.Default()
}
