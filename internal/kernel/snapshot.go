package kernel

import (
	"errors"

	"fsencr/internal/addr"
	"fsencr/internal/aesctr"
	"fsencr/internal/config"
	"fsencr/internal/fs"
	"fsencr/internal/memctrl"
)

// This file is the kernel layer of the concurrent read fast-path. A reader
// goroutine holding the shard's read lock can open a file and load from it
// against a quiescent System without mutating anything: no core clock
// advances, no page faults, no controller metadata fills. Anything the live
// path would have handled with a mutation (or an error whose exact text the
// client sees) makes the snapshot path refuse, and the caller re-runs the op
// in a mutation bracket.

// SnapshotReader is one goroutine's private read context: a controller
// Reader (forked AES engines and OTP scratch), a page of plaintext scratch
// for partial-page loads, and the file Open last opened — so opening one
// allocates nothing. Open derives the file's key afresh, as OpenFile does,
// and keeps none. Never share one across goroutines.
type SnapshotReader struct {
	s    *System
	rd   *memctrl.Reader
	page aesctr.Page

	// The open file, and the delta its loads defer their side effects into.
	f  *fs.File
	df bool
	d  *memctrl.ReadDelta
}

// errRefused is every refused snapshot load: the caller falls back.
var errRefused = errors.New("kernel: snapshot load refused")

// NewSnapshotReader builds a read context bound to this system's memory
// controller. Safe to call from any goroutine.
func (s *System) NewSnapshotReader() *SnapshotReader {
	return &SnapshotReader{s: s, rd: s.M.MC.NewReader()}
}

// Open decides what OpenFile decides for a read by (uid, gid) — Access,
// then the key check through the side-effect-free Peek path — and makes
// name the file ReadAt loads from, deferring side effects into d. false
// means fall back: the open fails, or the page-cache modes (not ModeDAX)
// would fill caches on read.
func (sr *SnapshotReader) Open(uid, gid uint32, name, passphrase string, d *memctrl.ReadDelta) bool {
	s := sr.s
	if s.mode != ModeDAX {
		return false
	}
	f, err := s.Access(uid, gid, name, fs.ReadAccess)
	if err != nil || f.Encrypted && !s.M.MC.PeekVerifyKey(f.GroupID, f.Ino, DeriveFileKey(passphrase, f.Salt)) {
		return false
	}
	sr.f, sr.df, sr.d = f, f.Encrypted && s.dfEnabled(), d
	return true
}

// ReadAt loads [off, off+len(b)) of the open file into b — an io.ReaderAt
// over the file's offsets — within its EOF bound (the live path's
// fs.File.Covers): whole pages straight into b, a partial page as the run
// of lines covering it, through the page scratch. A partial page is line
// loads on the live path, which audit nothing, so its run stops short of the
// 64 lines that carry a page's audit record. Any error means fall back, b
// then unspecified.
func (sr *SnapshotReader) ReadAt(b []byte, off int64) (int, error) {
	if off < 0 || !sr.f.Covers(uint64(off), uint64(len(b))) {
		return 0, errRefused
	}
	for n := 0; n < len(b); {
		cur := uint64(off) + uint64(n)
		pa, err := sr.f.PagePA(int(cur / config.PageSize))
		if err != nil {
			return 0, err
		}
		if sr.df {
			pa = pa.WithDF()
		}
		po, rest := int(cur%config.PageSize), b[n:]
		if po == 0 && len(rest) >= config.PageSize {
			if !sr.s.M.SnapshotReadLines(sr.rd, pa, config.LinesPerPage, rest, sr.d) {
				return 0, errRefused
			}
			n += config.PageSize
			continue
		}
		lo := po &^ (config.LineSize - 1)
		hi := min(po+len(rest)+config.LineSize-1, config.PageSize) &^ (config.LineSize - 1)
		hi = min(hi, lo+(config.LinesPerPage-1)*config.LineSize)
		if !sr.s.M.SnapshotReadLines(sr.rd, pa+addr.Phys(lo), (hi-lo)/config.LineSize, sr.page[lo:hi], sr.d) {
			return 0, errRefused
		}
		n += copy(rest, sr.page[po:hi])
	}
	return len(b), nil
}

// SnapshotRead reads [off, off+len(buf)) of name for (uid, gid) into buf
// without mutating the system, deferring side effects into d: Open, then
// ReadAt. ok=false means fall back, buf then unspecified: the live path
// mutates (key refill, first fault) or fails with an error the caller must
// take from it.
func (s *System) SnapshotRead(sr *SnapshotReader, uid, gid uint32, name, passphrase string, off uint64, buf []byte, d *memctrl.ReadDelta) bool {
	if !sr.Open(uid, gid, name, passphrase, d) {
		return false
	}
	_, err := sr.ReadAt(buf, int64(off))
	return err == nil
}
