package kernel

import (
	"fsencr/internal/addr"
	"fsencr/internal/aesctr"
	"fsencr/internal/config"
	"fsencr/internal/fs"
	"fsencr/internal/memctrl"
)

// This file is the kernel layer of the concurrent read fast-path. A reader
// goroutine holding the shard's seqlock for reading can plan and execute a
// file read against a quiescent System without mutating anything: no core
// clock advances, no page faults, no keyring memoization, no controller
// metadata fills. Anything the live path would have handled with a mutation
// (or an error whose exact text the client sees) makes the snapshot path
// return ok=false, and the caller re-runs the read on the owner goroutine.

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

// PageSpan is one page-granularity piece of a planned snapshot read:
// decrypt the page at PA, then copy plaintext[PageOff:PageOff+N] into
// buf[BufOff:BufOff+N]. Spans of one plan touch disjoint buf ranges, so a
// crypt pool may execute them concurrently with deterministic output.
type PageSpan struct {
	PA      addr.Phys
	PageOff int
	BufOff  int
	N       int
}

// SnapshotReadPlan validates a read for the snapshot fast-path and returns
// its page plan. The checks mirror OpenFile + the read loop: name lookup,
// Unix permission bits, passphrase-derived key verified against what the
// controller holds (via the side-effect-free Peek path), and EOF bounds.
// ok=false means fall back — either the live path mutates (key refill,
// first fault) or it fails with an exact error text the snapshot path must
// not reproduce ad hoc. Only ModeDAX reads are snapshot-servable: the
// page-cache modes fill caches on read.
func (s *System) SnapshotReadPlan(sr *SnapshotReader, uid, gid uint32, name, passphrase string, off, length uint64) ([]PageSpan, bool) {
	if s.mode != ModeDAX {
		return nil, false
	}
	f, err := s.FS.Lookup(name)
	if err != nil {
		return nil, false
	}
	if !f.Allows(uid, gid, fs.ReadAccess) {
		return nil, false
	}
	if f.Encrypted {
		key := sr.fileKey(passphrase, f.Salt)
		if !s.M.MC.PeekVerifyKey(f.GroupID, f.Ino, key) {
			return nil, false
		}
	}
	if length == 0 || off+length < off || off+length > uint64(f.Pages())*config.PageSize {
		return nil, false
	}
	df := f.Encrypted && s.dfEnabled()
	plan := make([]PageSpan, 0, (length+config.PageSize-1)/config.PageSize+1)
	bufOff := 0
	for cur := off; cur < off+length; {
		idx := int(cur / config.PageSize)
		pa, err := f.PagePA(idx)
		if err != nil {
			return nil, false
		}
		if df {
			pa = pa.WithDF()
		}
		po := int(cur % config.PageSize)
		n := config.PageSize - po
		if rem := int(off + length - cur); n > rem {
			n = rem
		}
		plan = append(plan, PageSpan{PA: pa, PageOff: po, BufOff: bufOff, N: n})
		bufOff += n
		cur += uint64(n)
	}
	return plan, true
}

// SnapshotReadSpan executes one span of a plan into buf, deferring side
// effects into d. Full-page spans decrypt straight into the caller's
// buffer; partial spans bounce through the reader's page scratch. Returns
// false when the controller path must fall back (the caller abandons the
// whole read; buf contents are then unspecified).
func (s *System) SnapshotReadSpan(sr *SnapshotReader, sp PageSpan, buf []byte, d *memctrl.ReadDelta) bool {
	if sp.PageOff == 0 && sp.N == config.PageSize {
		return s.M.SnapshotReadPage(sr.rd, sp.PA, (*aesctr.Page)(buf[sp.BufOff:sp.BufOff+config.PageSize]), d)
	}
	if !s.M.SnapshotReadPage(sr.rd, sp.PA, &sr.page, d) {
		return false
	}
	copy(buf[sp.BufOff:sp.BufOff+sp.N], sr.page[sp.PageOff:sp.PageOff+sp.N])
	return true
}

// SnapshotRead plans and serially executes a full read. The parallel
// page-crypt pool uses Plan/Span directly to fan large reads across
// readers; this is the one-goroutine form.
func (s *System) SnapshotRead(sr *SnapshotReader, uid, gid uint32, name, passphrase string, off uint64, buf []byte, d *memctrl.ReadDelta) bool {
	plan, ok := s.SnapshotReadPlan(sr, uid, gid, name, passphrase, off, uint64(len(buf)))
	if !ok {
		return false
	}
	for _, sp := range plan {
		if !s.SnapshotReadSpan(sr, sp, buf, d) {
			return false
		}
	}
	return true
}
