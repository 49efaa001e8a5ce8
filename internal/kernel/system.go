package kernel

import (
	"errors"
	"fmt"
	"slices"

	"fsencr/internal/addr"
	"fsencr/internal/aesctr"
	"fsencr/internal/audit"
	"fsencr/internal/config"
	"fsencr/internal/fs"
	"fsencr/internal/machine"
	"fsencr/internal/memctrl"
	"fsencr/internal/obsplane/journal"
	"fsencr/internal/pagecache"
	"fsencr/internal/stats"
	"fsencr/internal/swencrypt"
	"fsencr/internal/telemetry"
)

// AccessMode selects how file pages reach applications.
type AccessMode int

// Access modes.
const (
	// ModeDAX maps file pages directly into the address space
	// (Figure 1(b)): loads/stores hit the NVM through the cache hierarchy.
	ModeDAX AccessMode = iota
	// ModePageCache is the conventional path (Figure 1(a)): pages are
	// copied into the page cache on fault and written back on msync.
	ModePageCache
	// ModeSWEncrypt is ModePageCache with eCryptfs-style software
	// encryption of every page crossing the cache/device boundary.
	ModeSWEncrypt
)

func (m AccessMode) String() string {
	switch m {
	case ModeDAX:
		return "dax"
	case ModePageCache:
		return "pagecache"
	case ModeSWEncrypt:
		return "swencrypt"
	default:
		return fmt.Sprintf("AccessMode(%d)", int(m))
	}
}

// Physical memory layout (the paper's setup: a 16 GB PCM device, with the
// 4 GB starting at 12 GB configured as the persistent region via
// memmap=4G!12G and formatted as DAX-enabled ext4).
const (
	PmemBase = 12 << 30
	PmemSize = 4 << 30
	// Anonymous frames (process memory, page cache) are allocated below
	// the persistent region, starting above the zero page.
	anonBase  = 1 << 20
	anonLimit = PmemBase
)

// System is the booted OS instance.
type System struct {
	cfg     config.Config
	M       *machine.Machine
	FS      *fs.FS
	Keyring *Keyring
	mode    AccessMode

	pageCache  *pagecache.Cache
	swKeys     map[uint16]aesctr.Key        // software-encryption file keys
	swCiphers  map[uint16]*swencrypt.Cipher // per-file page ciphers
	frameRefs  map[addr.Phys]pagecache.Key  // page-cache frame -> file page
	freeFrames []addr.Phys                  // recycled page-cache frames
	anonNext   uint64
	procs      []*Process // live ones; started counts every NewProcess
	started    int

	// Handles on the machine's "kernel." counters, resolved once in BootSeq.
	nSWDecrypts, nSWEncrypts, nPageCacheLoads, nPageCacheWritebacks stats.Counter

	tel          *telemetry.Registry
	trace        *telemetry.TraceScope
	tPageFaults  *telemetry.Counter
	tFaultCycles *telemetry.Histogram
}

// Instrument attaches a telemetry registry to the system and the machine
// below it. A nil registry detaches.
func (s *System) Instrument(reg *telemetry.Registry) {
	s.tel = reg
	s.trace = reg.Scope()
	s.tPageFaults = reg.Counter("kernel.page_faults")
	s.tFaultCycles = reg.Histogram("kernel.page_fault_cycles")
	s.M.Instrument(reg)
}

// traceOp opens a kernel-category span on the request trace when one is
// active, returning the closer to defer (nil when untraced, so the hot
// path pays one branch).
func (s *System) traceOp(p *Process, name string) func() {
	ts := s.trace
	if !ts.Active() {
		return nil
	}
	start := uint64(p.core.Now)
	ts.Enter()
	return func() { ts.Exit("kernel", name, start, uint64(p.core.Now), p.core.ID()) }
}

// Telemetry returns the attached registry (nil when uninstrumented).
func (s *System) Telemetry() *telemetry.Registry { return s.tel }

// AttachJournal attaches a security-event journal to the machine (and so
// to the memory controller and the structures it owns). A nil journal
// detaches.
func (s *System) AttachJournal(j *journal.Journal) { s.M.AttachJournal(j) }

// EnableAudit enables the machine's tamper-evident access-audit plane and
// returns the log (capacity <= 0 uses the audit package default).
func (s *System) EnableAudit(capacity int) *audit.Log { return s.M.EnableAudit(capacity) }

// Kernel-level errors.
var (
	ErrWrongPassphrase = errors.New("kernel: passphrase does not match file key")
	ErrPermission      = errors.New("kernel: permission denied")
	ErrNoPassphrase    = errors.New("kernel: encrypted file requires a passphrase")
	ErrOutOfMemory     = errors.New("kernel: out of anonymous frames")
)

// Boot creates a system: a machine in the given protection mode, a
// formatted persistent region, and an empty keyring.
func Boot(cfg config.Config, mcMode memctrl.Mode, accessMode AccessMode) *System {
	return BootSeq(cfg, mcMode, accessMode, 0)
}

// BootSeq is Boot with an explicit controller chip sequence (0 = auto).
// Cluster shards boot with a deterministic per-shard sequence so replicas
// and migration targets derive the primary's exact processor keys.
func BootSeq(cfg config.Config, mcMode memctrl.Mode, accessMode AccessMode, chipSeq uint64) *System {
	s := &System{
		cfg:       cfg,
		M:         machine.NewWithChipSeq(cfg, mcMode, chipSeq),
		FS:        fs.New(PmemBase, PmemSize),
		Keyring:   NewKeyring(),
		mode:      accessMode,
		pageCache: pagecache.New(cfg.Kernel.PageCachePages),
		swKeys:    make(map[uint16]aesctr.Key),
		swCiphers: make(map[uint16]*swencrypt.Cipher),
		frameRefs: make(map[addr.Phys]pagecache.Key),
		anonNext:  anonBase / config.PageSize,
	}
	st := s.M.Stats()
	s.nSWDecrypts = st.Counter("kernel.sw_decrypts")
	s.nSWEncrypts = st.Counter("kernel.sw_encrypts")
	s.nPageCacheLoads = st.Counter("kernel.pagecache_loads")
	s.nPageCacheWritebacks = st.Counter("kernel.pagecache_writebacks")
	return s
}

// Mode returns the file access mode.
func (s *System) Mode() AccessMode { return s.mode }

// Config returns the system configuration.
func (s *System) Config() config.Config { return s.cfg }

// allocFrame hands out one anonymous physical frame.
func (s *System) allocFrame() (addr.Phys, error) {
	if s.anonNext*config.PageSize >= anonLimit {
		return 0, ErrOutOfMemory
	}
	pa := addr.Phys(s.anonNext * config.PageSize)
	s.anonNext++
	return pa, nil
}

// dfEnabled reports whether page-table entries for encrypted DAX files
// should carry the DF-bit (only meaningful when the controller implements
// the file datapath).
func (s *System) dfEnabled() bool {
	return s.M.MC.Mode().FileEncryption
}

// NewProcess starts a process with the given credentials, bound to a core
// round-robin in the order processes start.
func (s *System) NewProcess(uid, gid uint32) *Process {
	p := &Process{
		sys:  s,
		core: s.M.Core(s.started % s.M.Cores()),
		UID:  uid,
		GID:  gid,
		pt:   make(map[uint64]pte),
		// Leave a guard gap at the bottom of the address space.
		mmapNext: 0x7f00_0000_0000,
	}
	s.procs = append(s.procs, p)
	s.started++
	return p
}

// ExitProcess ends p: the kernel forgets it, so its page tables are no longer
// kept up to date. p must not be used again.
func (s *System) ExitProcess(p *Process) {
	if i := slices.Index(s.procs, p); i >= 0 {
		s.procs = slices.Delete(s.procs, i, i+1)
	}
}

// Processes returns how many processes the kernel keeps.
func (s *System) Processes() int { return len(s.procs) }

// CreateFile creates (and for encrypted files, keys) a file on behalf of p.
// For encrypted files the key is derived from the owner's passphrase and
// registered with the memory controller over MMIO (§III-F1) — or retained
// by the kernel for software encryption, depending on the access mode.
func (s *System) CreateFile(p *Process, name string, perm fs.Mode, size uint64, encrypted bool, passphrase string) (*fs.File, error) {
	if done := s.traceOp(p, "create_file"); done != nil {
		defer done()
	}
	p.core.Compute(s.cfg.Kernel.SyscallLatency)
	if encrypted && passphrase == "" {
		return nil, ErrNoPassphrase
	}
	f, err := s.FS.Create(name, p.UID, p.GID, perm, encrypted)
	if err != nil {
		return nil, err
	}
	if _, err := s.FS.Truncate(f, size); err != nil {
		s.FS.Unlink(name) // the file holds no page: a failed grow takes none
		return nil, err
	}
	if encrypted {
		key := DeriveFileKey(passphrase, f.Salt)
		switch s.mode {
		case ModeSWEncrypt:
			s.swKeys[f.Ino] = key
			s.swCiphers[f.Ino] = swencrypt.New(key, f.Ino)
		default:
			p.core.Compute(s.cfg.Kernel.MMIOWriteLatency)
			p.core.Now = s.M.MC.InstallKey(p.core.Now, f.GroupID, f.Ino, key)
		}
	}
	return f, nil
}

// Access looks name up and checks its Unix permission bits for (uid, gid):
// the part of opening a file that reads nothing but the filesystem, so a
// reader outside a mutation bracket (SnapshotRead, the server's stat) decides
// who may touch which file exactly as OpenFile does.
func (s *System) Access(uid, gid uint32, name string, want fs.Access) (*fs.File, error) {
	f, err := s.FS.Lookup(name)
	if err != nil {
		return nil, err
	}
	if !f.Allows(uid, gid, want) {
		return nil, fmt.Errorf("%w: %q", ErrPermission, name)
	}
	return f, nil
}

// OpenFile checks permissions and, for encrypted files, verifies the
// passphrase-derived key against what the controller holds: a wrong
// passphrase is rejected even if permission bits (after, say, an accidental
// chmod 777) would have allowed the access (§VI).
func (s *System) OpenFile(p *Process, name string, want fs.Access, passphrase string) (*fs.File, error) {
	if done := s.traceOp(p, "open_file"); done != nil {
		defer done()
	}
	p.core.Compute(s.cfg.Kernel.SyscallLatency)
	f, err := s.Access(p.UID, p.GID, name, want)
	if err != nil {
		return nil, err
	}
	if f.Encrypted {
		key := DeriveFileKey(passphrase, f.Salt)
		switch s.mode {
		case ModeSWEncrypt:
			if stored, ok := s.swKeys[f.Ino]; ok && stored != key {
				return nil, fmt.Errorf("%w: %q", ErrWrongPassphrase, name)
			}
		default:
			if s.M.MC.Mode().FileEncryption && !s.M.MC.VerifyKey(f.GroupID, f.Ino, key) {
				return nil, fmt.Errorf("%w: %q", ErrWrongPassphrase, name)
			}
		}
	}
	return f, nil
}

// Unlink deletes a file: its key is removed from the OTT and the encrypted
// OTT region, and every page is shredded Silent-Shredder-style so the data
// is unrecoverable even with the old key (§VI, "Secure File Deletion").
func (s *System) Unlink(p *Process, name string) error {
	if done := s.traceOp(p, "unlink"); done != nil {
		defer done()
	}
	p.core.Compute(s.cfg.Kernel.SyscallLatency)
	f, err := s.FS.Lookup(name)
	if err != nil {
		return err
	}
	if p.UID != 0 && p.UID != f.OwnerUID {
		return fmt.Errorf("%w: unlink %q", ErrPermission, name)
	}
	f, pages, err := s.FS.Unlink(name)
	if err != nil {
		return err
	}
	if f.Encrypted {
		p.core.Compute(s.cfg.Kernel.MMIOWriteLatency)
		p.core.Now = s.M.MC.RemoveKey(p.core.Now, f.GroupID, f.Ino)
		delete(s.swKeys, f.Ino)
		delete(s.swCiphers, f.Ino)
	}
	for _, pg := range pages {
		pa := addr.Phys(pg * config.PageSize)
		p.core.Now = s.M.MC.ShredPage(p.core.Now, pa)
		// Drop any page-cache copy.
		if page, ok := s.pageCache.Remove(pagecache.Key{Ino: f.Ino, PageIdx: pg}); ok {
			delete(s.frameRefs, page.Frame)
		}
	}
	// Invalidate stale mappings in every process.
	for _, proc := range s.procs {
		proc.invalidateFileMappings(f)
	}
	return nil
}

// Chmod changes a file's permission bits on behalf of p (owner or root
// only). Note the §VI argument this models: permission bits are advisory
// next to the per-file key — an over-permissive chmod still leaves
// encrypted content unreadable without the right passphrase.
func (s *System) Chmod(p *Process, name string, perm fs.Mode) error {
	if done := s.traceOp(p, "chmod"); done != nil {
		defer done()
	}
	p.core.Compute(s.cfg.Kernel.SyscallLatency)
	f, err := s.FS.Lookup(name)
	if err != nil {
		return err
	}
	return s.FS.Chmod(f, p.UID, perm)
}

// Sync writes back every dirty page-cache page (non-DAX modes).
func (s *System) Sync(p *Process) {
	if done := s.traceOp(p, "sync"); done != nil {
		defer done()
	}
	p.core.Compute(s.cfg.Kernel.SyscallLatency)
	for _, pg := range s.pageCache.DirtyPages() {
		s.writebackPage(p, pg)
	}
}

// AuthenticateAdmin models the boot-time admin credential exchange with the
// memory controller (§VI, "Protecting Files from Internal Attacks"): a
// wrong credential locks the FsEncr datapath, leaving only memory
// encryption active — an attacker booting an alien OS sees file bytes
// still wrapped in their file OTPs.
func (s *System) AuthenticateAdmin(passphrase, expected string) bool {
	if passphrase != expected {
		s.M.MC.Lock()
		return false
	}
	s.M.MC.Unlock()
	return true
}
