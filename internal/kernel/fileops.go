package kernel

import (
	"fmt"

	"fsencr/internal/addr"
	"fsencr/internal/config"
	"fsencr/internal/fs"
)

// RotateFilePassphrase re-keys an encrypted file under a new passphrase
// (§VI, "Resetting Filesystem Encryption Counters"): every page is
// re-encrypted from the old file key to the new one with reset counters,
// and the controller's OTT entry is replaced. Only the owner (or root) may
// rotate, and the old passphrase must verify first.
func (s *System) RotateFilePassphrase(p *Process, name, oldPass, newPass string) error {
	p.core.Compute(s.cfg.Kernel.SyscallLatency)
	f, err := s.FS.Lookup(name)
	if err != nil {
		return err
	}
	if p.UID != 0 && p.UID != f.OwnerUID {
		return fmt.Errorf("%w: rotate %q", ErrPermission, name)
	}
	if !f.Encrypted {
		return fmt.Errorf("kernel: %q is not encrypted", name)
	}
	if newPass == "" {
		return ErrNoPassphrase
	}
	oldKey := DeriveFileKey(oldPass, f.Salt)
	newKey := DeriveFileKey(newPass, f.Salt)
	switch s.mode {
	case ModeSWEncrypt:
		if stored, ok := s.swKeys[f.Ino]; ok && stored != oldKey {
			return fmt.Errorf("%w: %q", ErrWrongPassphrase, name)
		}
		return fmt.Errorf("kernel: software-encryption rekey not supported")
	default:
		if s.M.MC.Mode().FileEncryption && !s.M.MC.VerifyKey(f.GroupID, f.Ino, oldKey) {
			return fmt.Errorf("%w: %q", ErrWrongPassphrase, name)
		}
	}
	// Quiesce cached plaintext of the file so the controller's in-place
	// re-encryption is authoritative.
	s.M.WritebackAll()
	for i := 0; i < f.Pages(); i++ {
		pa, err := f.PagePA(i)
		if err != nil {
			return err
		}
		p.core.Compute(s.cfg.Kernel.MMIOWriteLatency)
		p.core.Now = s.M.MC.RotateFileKey(p.core.Now, pa.WithDF(), f.GroupID, f.Ino, oldKey, newKey)
	}
	p.core.Compute(s.cfg.Kernel.MMIOWriteLatency)
	p.core.Now = s.M.MC.InstallKey(p.core.Now, f.GroupID, f.Ino, newKey)
	return nil
}

// ChangeGroup moves a file to a new sharing group. For encrypted files the
// controller's state is keyed by (GroupID, FileID), so the kernel must
// re-register the key under the new group and re-tag every page's FECB —
// otherwise later opens and page faults would miss the OTT entry.
func (s *System) ChangeGroup(p *Process, name string, gid uint32, passphrase string) error {
	p.core.Compute(s.cfg.Kernel.SyscallLatency)
	f, err := s.FS.Lookup(name)
	if err != nil {
		return err
	}
	oldGid := f.GroupID
	if err := s.FS.Chgrp(f, p.UID, gid); err != nil {
		return err
	}
	if !f.Encrypted || s.mode == ModeSWEncrypt || !s.M.MC.Mode().FileEncryption {
		return nil
	}
	key := DeriveFileKey(passphrase, f.Salt)
	if !s.M.MC.VerifyKey(oldGid, f.Ino, key) {
		// Roll back the group change rather than strand the file.
		_ = s.FS.Chgrp(f, p.UID, oldGid)
		return fmt.Errorf("%w: %q", ErrWrongPassphrase, name)
	}
	p.core.Compute(s.cfg.Kernel.MMIOWriteLatency)
	p.core.Now = s.M.MC.RemoveKey(p.core.Now, oldGid, f.Ino)
	p.core.Now = s.M.MC.InstallKey(p.core.Now, gid, f.Ino, key)
	for i := 0; i < f.Pages(); i++ {
		pa, err := f.PagePA(i)
		if err != nil {
			return err
		}
		p.core.Now = s.M.MC.TagPage(p.core.Now, pa.WithDF(), gid, f.Ino)
	}
	return nil
}

// CopyFile copies src to a new file dst owned by p with the given
// permissions and passphrase (§VI, "Copying or Moving Files Within Same
// Device"): the kernel reads the source through the processor (decrypting
// with the source's counters) and writes to the destination's fresh
// physical pages, whose IVs are spatially unique — so identical plaintext
// never re-uses an OTP.
func (s *System) CopyFile(p *Process, srcName, dstName string, perm fs.Mode, srcPass, dstPass string) (*fs.File, error) {
	src, err := s.OpenFile(p, srcName, fs.ReadAccess, srcPass)
	if err != nil {
		return nil, err
	}
	dst, err := s.CreateFile(p, dstName, perm, src.Size, src.Encrypted, dstPass)
	if err != nil {
		return nil, err
	}
	srcVA, err := p.Mmap(src, src.Size)
	if err != nil {
		return nil, err
	}
	dstVA, err := p.Mmap(dst, src.Size)
	if err != nil {
		return nil, err
	}
	var buf [config.PageSize]byte
	for off := uint64(0); off < src.Size; off += config.PageSize {
		n := uint64(config.PageSize)
		if src.Size-off < n {
			n = src.Size - off
		}
		if err := p.Read(srcVA+addr.Virt(off), buf[:n]); err != nil {
			return nil, err
		}
		if err := p.Write(dstVA+addr.Virt(off), buf[:n]); err != nil {
			return nil, err
		}
		if err := p.Persist(dstVA+addr.Virt(off), n); err != nil {
			return nil, err
		}
	}
	return dst, nil
}
