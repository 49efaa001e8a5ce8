package kernel

import (
	"fsencr/internal/aesctr"
	"fsencr/internal/config"
	"fsencr/internal/fs"
	"fsencr/internal/memctrl"
)

// This file is the kernel layer of the concurrent read fast-path. A reader
// goroutine holding the shard's read lock can execute a file read against a
// quiescent System without mutating anything: no core clock advances, no
// page faults, no keyring memoization, no controller metadata fills.
// Anything the live path would have handled with a mutation (or an error
// whose exact text the client sees) makes the snapshot path return
// ok=false, and the caller re-runs the read on the owner goroutine.

// SnapshotReader is one goroutine's private read context: a controller
// Reader (forked AES engines and OTP scratch), a page of plaintext scratch
// for sub-page copies, and a passphrase-derived file-key memo replacing the
// owner-only Keyring cache. Never share one across goroutines.
type SnapshotReader struct {
	rd   *memctrl.Reader
	keys map[fekMemo]aesctr.Key
	page aesctr.Page
}

type fekMemo struct {
	pass string
	salt [8]byte
}

// NewSnapshotReader builds a read context bound to this system's memory
// controller. Safe to call from any goroutine.
func (s *System) NewSnapshotReader() *SnapshotReader {
	return &SnapshotReader{
		rd:   s.M.MC.NewReader(),
		keys: make(map[fekMemo]aesctr.Key),
	}
}

func (sr *SnapshotReader) fileKey(pass string, salt [8]byte) aesctr.Key {
	m := fekMemo{pass, salt}
	if k, ok := sr.keys[m]; ok {
		return k
	}
	k := DeriveFileKey(pass, salt)
	sr.keys[m] = k
	return k
}

// SnapshotRead reads [off, off+len(buf)) of name for (uid, gid) into buf
// without mutating the system, deferring side effects into d. It decides
// what OpenFile and the owner's read decide — Access, the passphrase-derived
// key verified against what the controller holds (through the side-effect-
// free Peek path), the file's EOF bound — then decrypts page by page: whole
// pages straight into buf, partial ones through the reader's page scratch.
// ok=false means fall back, buf then unspecified: the live path mutates (key
// refill, first fault) or fails with an error the caller must take from it.
// Only ModeDAX reads qualify: the page-cache modes fill caches on read.
func (s *System) SnapshotRead(sr *SnapshotReader, uid, gid uint32, name, passphrase string, off uint64, buf []byte, d *memctrl.ReadDelta) bool {
	if s.mode != ModeDAX {
		return false
	}
	f, err := s.Access(uid, gid, name, fs.ReadAccess)
	if err != nil || !f.Covers(off, uint64(len(buf))) {
		return false
	}
	if f.Encrypted && !s.M.MC.PeekVerifyKey(f.GroupID, f.Ino, sr.fileKey(passphrase, f.Salt)) {
		return false
	}
	df := f.Encrypted && s.dfEnabled()
	for n := 0; n < len(buf); {
		cur := off + uint64(n)
		pa, err := f.PagePA(int(cur / config.PageSize))
		if err != nil {
			return false
		}
		if df {
			pa = pa.WithDF()
		}
		po, rest := int(cur%config.PageSize), buf[n:]
		if po == 0 && len(rest) >= config.PageSize {
			if !s.M.SnapshotReadPage(sr.rd, pa, (*aesctr.Page)(rest), d) {
				return false
			}
			n += config.PageSize
			continue
		}
		if !s.M.SnapshotReadPage(sr.rd, pa, &sr.page, d) {
			return false
		}
		n += copy(rest, sr.page[po:])
	}
	return true
}
