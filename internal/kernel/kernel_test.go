package kernel

import (
	"bytes"
	"errors"
	"testing"

	"fsencr/internal/config"
	"fsencr/internal/fs"
	"fsencr/internal/memctrl"
)

func bootFsEncr() *System {
	return Boot(config.Default(), memctrl.Mode{MemEncryption: true, FileEncryption: true}, ModeDAX)
}

func bootPlainDAX() *System {
	return Boot(config.Default(), memctrl.Mode{}, ModeDAX)
}

func bootSWEncr() *System {
	return Boot(config.Default(), memctrl.Mode{}, ModeSWEncrypt)
}

const pass = "hunter2hunter2"

func mkfile(t *testing.T, s *System, p *Process, name string, size uint64, encrypted bool) *fs.File {
	t.Helper()
	f, err := s.CreateFile(p, name, 0600, size, encrypted, pass)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestDAXMmapReadWrite(t *testing.T) {
	s := bootFsEncr()
	p := s.NewProcess(1000, 100)
	f := mkfile(t, s, p, "a.db", 64<<10, true)
	va, err := p.Mmap(f, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("the quick brown fox")
	if err := p.Write(va+100, msg); err != nil {
		t.Fatal(err)
	}
	if err := p.Persist(va+100, uint64(len(msg))); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := p.Read(va+100, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q", got)
	}
	if p.MinorFaults == 0 {
		t.Fatal("no page fault on first touch")
	}
}

func TestDFBitSetForEncryptedDAXFiles(t *testing.T) {
	s := bootFsEncr()
	p := s.NewProcess(1000, 100)
	f := mkfile(t, s, p, "e.db", 8<<10, true)
	va, _ := p.Mmap(f, 8<<10)
	p.Write(va, []byte{1})
	pa, _, err := p.translate(va)
	if err != nil {
		t.Fatal(err)
	}
	if !pa.IsDF() {
		t.Fatal("PTE missing DF-bit for encrypted DAX file")
	}
	// The controller saw the MMIO tag.
	if s.M.Stats().Get("mc.page_tags") == 0 {
		t.Fatal("no FECB tagging on page fault")
	}
	// Unencrypted file: no DF.
	g := mkfile(t, s, p, "plain.db", 8<<10, false)
	va2, _ := p.Mmap(g, 8<<10)
	p.Write(va2, []byte{1})
	pa2, _, _ := p.translate(va2)
	if pa2.IsDF() {
		t.Fatal("DF-bit set for unencrypted file")
	}
}

func TestEncryptedFileCiphertextAtRest(t *testing.T) {
	s := bootFsEncr()
	p := s.NewProcess(1000, 100)
	f := mkfile(t, s, p, "sec.db", 8<<10, true)
	va, _ := p.Mmap(f, 8<<10)
	secret := []byte("TOP-SECRET-PAYLOAD-1234567890ABC")
	p.Write(va, secret)
	p.Persist(va, uint64(len(secret)))
	s.M.WritebackAll()
	pa, _ := f.PagePA(0)
	raw := s.M.MC.RawLine(pa.WithDF())
	if bytes.Contains(raw[:], secret[:16]) {
		t.Fatal("plaintext visible in NVM")
	}
	// Memory key alone is not enough (System C property).
	half := s.M.MC.DecryptWithMemoryKeyOnly(pa.WithDF())
	if bytes.Contains(half[:], secret[:16]) {
		t.Fatal("memory key alone revealed file plaintext")
	}
}

func TestWrongPassphraseDenied(t *testing.T) {
	s := bootFsEncr()
	p := s.NewProcess(1000, 100)
	mkfile(t, s, p, "locked.db", 8<<10, true)
	if _, err := s.OpenFile(p, "locked.db", fs.ReadAccess, "wrong-pass"); !errors.Is(err, ErrWrongPassphrase) {
		t.Fatalf("wrong passphrase: %v", err)
	}
	if _, err := s.OpenFile(p, "locked.db", fs.ReadAccess, pass); err != nil {
		t.Fatalf("correct passphrase rejected: %v", err)
	}
}

func TestChmod777StillNeedsPassphrase(t *testing.T) {
	// §VI: accidental chmod 777 must not expose an encrypted file to a
	// curious user who lacks the passphrase.
	s := bootFsEncr()
	owner := s.NewProcess(1000, 100)
	f := mkfile(t, s, owner, "oops.db", 8<<10, true)
	if err := s.FS.Chmod(f, 1000, 0777); err != nil {
		t.Fatal(err)
	}
	curious := s.NewProcess(2000, 200)
	if _, err := s.OpenFile(curious, "oops.db", fs.ReadAccess, "guess"); !errors.Is(err, ErrWrongPassphrase) {
		t.Fatalf("curious user with chmod 777 got: %v", err)
	}
	// With the right passphrase (e.g. shared deliberately), access works.
	if _, err := s.OpenFile(curious, "oops.db", fs.ReadAccess, pass); err != nil {
		t.Fatal(err)
	}
}

func TestPermissionBitsEnforced(t *testing.T) {
	s := bootPlainDAX()
	owner := s.NewProcess(1000, 100)
	mkfile(t, s, owner, "private.db", 8<<10, false)
	other := s.NewProcess(2000, 200)
	if _, err := s.OpenFile(other, "private.db", fs.ReadAccess, ""); !errors.Is(err, ErrPermission) {
		t.Fatalf("0600 file readable by other: %v", err)
	}
}

func TestUnlinkShredsData(t *testing.T) {
	s := bootFsEncr()
	p := s.NewProcess(1000, 100)
	f := mkfile(t, s, p, "gone.db", 8<<10, true)
	va, _ := p.Mmap(f, 8<<10)
	secret := []byte("DELETE-ME-SECRET-0123456789ABCDEF")
	p.Write(va, secret)
	p.Persist(va, uint64(len(secret)))
	s.M.WritebackAll()
	pa, _ := f.PagePA(0)
	if err := s.Unlink(p, "gone.db"); err != nil {
		t.Fatal(err)
	}
	// Even re-reading the old physical page through the controller (with
	// whatever keys remain) must not yield the plaintext.
	line, _ := s.M.MC.ReadLine(0, pa.WithDF())
	if bytes.Contains(line[:], secret[:16]) {
		t.Fatal("deleted file data recoverable")
	}
	if s.M.Stats().Get("mc.page_shreds") == 0 {
		t.Fatal("no pages shredded")
	}
	// The stale mapping is gone.
	if err := p.Read(va, make([]byte, 4)); err == nil {
		t.Fatal("read through stale mapping of deleted file succeeded")
	}
}

func TestUnlinkPermission(t *testing.T) {
	s := bootPlainDAX()
	owner := s.NewProcess(1000, 100)
	mkfile(t, s, owner, "keep.db", 8<<10, false)
	other := s.NewProcess(2000, 200)
	if err := s.Unlink(other, "keep.db"); !errors.Is(err, ErrPermission) {
		t.Fatalf("non-owner unlink: %v", err)
	}
}

func TestAdminAuthLock(t *testing.T) {
	s := bootFsEncr()
	p := s.NewProcess(1000, 100)
	f := mkfile(t, s, p, "locked.db", 8<<10, true)
	va, _ := p.Mmap(f, 8<<10)
	secret := []byte("ADMIN-PROTECTED-SECRET-BYTES!!!!")
	p.Write(va, secret)
	p.Persist(va, uint64(len(secret)))
	s.M.WritebackAll()
	// An attacker boots with wrong admin credentials: FsEncr locks.
	if s.AuthenticateAdmin("letmein", "root-pass") {
		t.Fatal("wrong admin credential accepted")
	}
	got := make([]byte, len(secret))
	// Force re-reads from NVM.
	s.M.Crash(true)
	if err := s.M.Recover(); err != nil {
		t.Fatal(err)
	}
	p.Read(va, got)
	if bytes.Contains(got, secret[:16]) {
		t.Fatal("locked controller still served plaintext")
	}
	// Correct credential restores service.
	if !s.AuthenticateAdmin("root-pass", "root-pass") {
		t.Fatal("correct credential rejected")
	}
	s.M.Crash(true)
	if err := s.M.Recover(); err != nil {
		t.Fatal(err)
	}
	p.Read(va, got)
	if !bytes.Equal(got, secret) {
		t.Fatal("unlock did not restore plaintext access")
	}
}

func TestAnonymousMemory(t *testing.T) {
	s := bootPlainDAX()
	p := s.NewProcess(1000, 100)
	va := p.MmapAnon(16 << 10)
	p.Write(va+8192, []byte{9, 8, 7})
	got := make([]byte, 3)
	p.Read(va+8192, got)
	if got[0] != 9 || got[2] != 7 {
		t.Fatal("anon roundtrip failed")
	}
	// Fresh anon pages read zero.
	p.Read(va, got)
	if got[0] != 0 {
		t.Fatal("anon memory not zeroed")
	}
}

func TestSegfault(t *testing.T) {
	s := bootPlainDAX()
	p := s.NewProcess(1000, 100)
	if err := p.Read(0xdead0000, make([]byte, 1)); err == nil {
		t.Fatal("unmapped read succeeded")
	}
}

func TestMmapBeyondEOF(t *testing.T) {
	s := bootPlainDAX()
	p := s.NewProcess(1000, 100)
	f := mkfile(t, s, p, "small.db", 4<<10, false)
	if _, err := p.Mmap(f, 64<<10); err == nil {
		t.Fatal("mmap beyond EOF succeeded")
	}
}

func TestEncryptedFileNeedsPassphrase(t *testing.T) {
	s := bootFsEncr()
	p := s.NewProcess(1000, 100)
	if _, err := s.CreateFile(p, "nopass.db", 0600, 4<<10, true, ""); !errors.Is(err, ErrNoPassphrase) {
		t.Fatalf("encrypted file without passphrase: %v", err)
	}
}

// TestFailedCreateTakesNothing: a create larger than the region fails and
// leaves the volume as it found it — every free page still free, the name
// free — so the next small create, by anyone, succeeds.
func TestFailedCreateTakesNothing(t *testing.T) {
	s := bootFsEncr()
	p := s.NewProcess(1000, 100)
	free := s.FS.FreePages()
	if _, err := s.CreateFile(p, "huge.db", 0600, 5<<30, true, pass); !errors.Is(err, fs.ErrNoSpace) {
		t.Fatalf("5 GiB create: %v, want ErrNoSpace", err)
	}
	if got := s.FS.FreePages(); got != free {
		t.Fatalf("a failed create took pages: %d free, want %d", got, free)
	}
	if _, err := s.FS.Lookup("huge.db"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("a failed create left its name taken: lookup %v", err)
	}
	mkfile(t, s, s.NewProcess(2000, 200), "small.db", 4<<10, true)
	mkfile(t, s, p, "huge.db", 4<<10, true)
}
