package kernel

import (
	"encoding/binary"
	"fmt"

	"fsencr/internal/addr"
	"fsencr/internal/aesctr"
	"fsencr/internal/config"
	"fsencr/internal/fs"
	"fsencr/internal/machine"
	"fsencr/internal/pagecache"
)

// pte is a page-table entry. The DF-bit lives in the stored physical
// address, exactly as the paper implements it in dax_insert_mapping:
// ((1UL<<51) | pfn).
type pte struct {
	pa      addr.Phys // page-aligned, DF-bit included for encrypted DAX files
	present bool
	vma     *vma
	// cachePage links page-cache-backed mappings so stores can mark the
	// page dirty for writeback.
	cachePage *pagecache.Page
}

// vma is one virtual memory area.
type vma struct {
	base   addr.Virt
	length uint64
	file   *fs.File // nil for anonymous mappings
	dax    bool
}

func (v *vma) contains(va addr.Virt) bool {
	return va >= v.base && uint64(va-v.base) < v.length
}

// Process is one simulated process: credentials, a page table, and the core
// its (single) thread runs on. The paper's multi-threaded benchmarks use
// one Process per worker thread sharing the same files.
type Process struct {
	sys  *System
	core *machine.Core
	UID  uint32
	GID  uint32

	pt       map[uint64]pte
	vmas     []*vma
	mmapNext uint64

	MinorFaults uint64
}

// Core exposes the core this process runs on (for clock inspection).
func (p *Process) Core() *machine.Core { return p.core }

// Now returns the process's current simulated time.
func (p *Process) Now() config.Cycle { return p.core.Now }

// Mmap maps length bytes of f starting at file offset 0 into the address
// space. Under ModeDAX the pages will map directly onto NVM; otherwise they
// go through the page cache. Mapping is lazy: pages fault on first touch.
func (p *Process) Mmap(f *fs.File, length uint64) (addr.Virt, error) {
	p.core.Compute(p.sys.cfg.Kernel.SyscallLatency)
	if length > uint64(f.Pages())*config.PageSize {
		return 0, fmt.Errorf("kernel: mmap %d bytes beyond EOF of %q", length, f.Name)
	}
	v := &vma{
		base:   addr.Virt(p.mmapNext),
		length: length,
		file:   f,
		dax:    p.sys.mode == ModeDAX,
	}
	p.mmapNext += (length + config.PageSize - 1) &^ (config.PageSize - 1)
	p.mmapNext += config.PageSize // guard page
	p.vmas = append(p.vmas, v)
	return v.base, nil
}

// MmapAnon maps length bytes of zeroed anonymous memory.
func (p *Process) MmapAnon(length uint64) addr.Virt {
	p.core.Compute(p.sys.cfg.Kernel.SyscallLatency)
	v := &vma{base: addr.Virt(p.mmapNext), length: length}
	p.mmapNext += (length+config.PageSize-1)&^(config.PageSize-1) + config.PageSize
	p.vmas = append(p.vmas, v)
	return v.base
}

func (p *Process) findVMA(va addr.Virt) (*vma, error) {
	for _, v := range p.vmas {
		if v.contains(va) {
			return v, nil
		}
	}
	return nil, fmt.Errorf("kernel: segfault at %#x (pid core %d)", uint64(va), p.core.ID())
}

// translate resolves va to a physical address, taking a page fault on
// first touch. The returned page-cache page (nil for DAX/anonymous
// mappings) lets stores mark it dirty.
func (p *Process) translate(va addr.Virt) (addr.Phys, *pagecache.Page, error) {
	vp := va.PageNum()
	e, ok := p.pt[vp]
	if !ok || !e.present {
		if err := p.pageFault(va); err != nil {
			return 0, nil, err
		}
		e = p.pt[vp]
	}
	return e.pa + addr.Phys(va.PageOffset()), e.cachePage, nil
}

// pageFault handles the first access to a page (§III-F1). For DAX files it
// installs the file page's physical address with the DF-bit set (for
// encrypted files) and signals the memory controller to tag the page's
// FECB with (GroupID, FileID) over MMIO. For page-cache-backed files it
// performs the conventional copy-in of Figure 1(a), decrypting in software
// when eCryptfs-style encryption is active.
func (p *Process) pageFault(va addr.Virt) error {
	s := p.sys
	v, err := p.findVMA(va)
	if err != nil {
		return err
	}
	p.MinorFaults++
	s.tPageFaults.Inc()
	faultStart := p.core.Now
	defer func() {
		s.tFaultCycles.Observe(uint64(p.core.Now - faultStart))
		s.tel.Span("kernel", "page_fault", uint64(faultStart), uint64(p.core.Now), p.core.ID())
	}()
	p.core.Compute(s.cfg.Kernel.PageFaultLatency)
	vp := va.PageNum()

	// Anonymous mapping: allocate a zero frame.
	if v.file == nil {
		frame, err := s.allocFrame()
		if err != nil {
			return err
		}
		p.pt[vp] = pte{pa: frame, present: true, vma: v}
		return nil
	}

	pageIdx := uint64(va-v.base) / config.PageSize
	if v.dax {
		pa, err := v.file.PagePA(int(pageIdx))
		if err != nil {
			return err
		}
		if v.file.Encrypted && s.dfEnabled() {
			pa = pa.WithDF()
			// MMIO: send (GroupID, FileID) so the controller updates the
			// page's FECB.
			p.core.Compute(s.cfg.Kernel.MMIOWriteLatency)
			p.core.Now = s.M.MC.TagPage(p.core.Now, pa, v.file.GroupID, v.file.Ino)
		}
		p.pt[vp] = pte{pa: pa, present: true, vma: v}
		return nil
	}

	// Conventional path: find or load the page-cache copy.
	page, err := s.loadPageCache(p, v.file, pageIdx)
	if err != nil {
		return err
	}
	p.pt[vp] = pte{pa: page.Frame, present: true, vma: v, cachePage: page}
	return nil
}

// invalidateFileMappings unmaps every page of f (file deletion).
func (p *Process) invalidateFileMappings(f *fs.File) {
	for vp, e := range p.pt {
		if e.vma != nil && e.vma.file == f {
			delete(p.pt, vp)
		}
	}
}

// pageDirect reports whether the (already translated) page holding va is a
// DAX file mapping whose full-page accesses may use the batched page
// datapath: the physical page is NVM itself, so whole-page reads and
// non-temporal writes need no cache-line round trips.
func (p *Process) pageDirect(va addr.Virt) bool {
	e := p.pt[va.PageNum()]
	return e.vma != nil && e.vma.dax && e.vma.file != nil
}

// Read copies n bytes at va into buf (len(buf) bytes are read).
func (p *Process) Read(va addr.Virt, buf []byte) error {
	if done := p.sys.traceOp(p, "read"); done != nil {
		defer done()
	}
	off := 0
	for off < len(buf) {
		cur := va + addr.Virt(off)
		pa, _, err := p.translate(cur)
		if err != nil {
			return err
		}
		// Page fast path: a page-aligned, page-sized span of a DAX file
		// moves through the controller's one-call page datapath.
		if cur.PageOffset() == 0 && len(buf)-off >= config.PageSize && p.pageDirect(cur) {
			p.core.ReadPageNC(pa, (*aesctr.Page)(buf[off:off+config.PageSize]))
			off += config.PageSize
			continue
		}
		n := int(config.PageSize - cur.PageOffset())
		if n > len(buf)-off {
			n = len(buf) - off
		}
		p.core.Read(pa, buf[off:off+n])
		off += n
	}
	return nil
}

// Write stores data at va.
func (p *Process) Write(va addr.Virt, data []byte) error {
	if done := p.sys.traceOp(p, "write"); done != nil {
		defer done()
	}
	off := 0
	for off < len(data) {
		cur := va + addr.Virt(off)
		pa, cachePage, err := p.translate(cur)
		if err != nil {
			return err
		}
		// Page fast path: full-page DAX stores go non-temporal through the
		// batched page datapath — accepted into the persistence domain as
		// one burst, no read-for-ownership, no cache allocation.
		if cur.PageOffset() == 0 && len(data)-off >= config.PageSize && p.pageDirect(cur) {
			p.core.WritePageNT(pa, (*aesctr.Page)(data[off:off+config.PageSize]))
			off += config.PageSize
			continue
		}
		n := int(config.PageSize - cur.PageOffset())
		if n > len(data)-off {
			n = len(data) - off
		}
		p.core.Write(pa, data[off:off+n])
		if cachePage != nil {
			cachePage.Dirty = true
		}
		off += n
	}
	return nil
}

// Persist makes the byte range [va, va+n) durable. Under DAX this is the
// user-space CLWB+SFENCE sequence persistent-memory libraries issue; under
// the page-cache modes it is msync, which for software encryption means
// re-encrypting and writing back every touched page — the dominant cost
// the paper attributes to eCryptfs (Figure 3).
func (p *Process) Persist(va addr.Virt, n uint64) error {
	if n == 0 {
		return nil
	}
	if done := p.sys.traceOp(p, "persist"); done != nil {
		defer done()
	}
	s := p.sys
	if s.mode == ModeDAX {
		end := va + addr.Virt(n)
		for cur := va.LineAlign(); cur < end; cur += config.LineSize {
			pa, _, err := p.translate(cur)
			if err != nil {
				return err
			}
			p.core.Flush(pa)
		}
		p.core.Fence()
		return nil
	}
	// msync on the touched pages. The kernel's flusher throttles device
	// writebacks: a page is re-encrypted and copied back only after
	// SWWritebackEvery msyncs have accumulated (or at eviction/sync time),
	// matching writeback-cache behaviour under eCryptfs.
	p.core.Compute(s.cfg.Kernel.MsyncLatency)
	firstPage := va.PageNum()
	lastPage := (va + addr.Virt(n) - 1).PageNum()
	for vp := firstPage; vp <= lastPage; vp++ {
		e, ok := p.pt[vp]
		if !ok || e.cachePage == nil || !e.cachePage.Dirty {
			continue
		}
		pg := e.cachePage
		pg.PersistCount++
		if pg.PersistCount >= s.cfg.Kernel.SWWritebackEvery {
			s.writebackPage(p, pg)
			continue
		}
		// Cheap path: the dirty frame lines are flushed from the CPU
		// caches (they are still only in the page cache, not the device).
		end := va + addr.Virt(n)
		for cur := va.LineAlign(); cur < end; cur += config.LineSize {
			if cur.PageNum() != vp {
				continue
			}
			pa, _, err := p.translate(cur)
			if err != nil {
				return err
			}
			p.core.Flush(pa)
		}
		p.core.Fence()
	}
	return nil
}

// ReadU64 is a convenience accessor used by the persistent data structures.
func (p *Process) ReadU64(va addr.Virt) (uint64, error) {
	var b [8]byte
	if err := p.Read(va, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// WriteU64 stores a 64-bit little-endian value.
func (p *Process) WriteU64(va addr.Virt, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return p.Write(va, b[:])
}
