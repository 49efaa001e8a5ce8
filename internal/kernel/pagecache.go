package kernel

import (
	"fsencr/internal/addr"
	"fsencr/internal/aesctr"
	"fsencr/internal/config"
	"fsencr/internal/fs"
	"fsencr/internal/pagecache"
)

// loadPageCache brings file page pageIdx into the page cache (the
// conventional path of Figure 1(a)): traverse the filesystem software
// stack, copy the page from the device region into an anonymous frame, and
// — under eCryptfs-style software encryption — decrypt the whole 4 KB page
// with the file key before handing it to the application.
func (s *System) loadPageCache(p *Process, f *fs.File, pageIdx uint64) (*pagecache.Page, error) {
	key := pagecache.Key{Ino: f.Ino, PageIdx: pageIdx}
	if pg, ok := s.pageCache.Get(key); ok {
		return pg, nil
	}
	// Software stack traversal: VFS -> (eCryptfs) -> ext4 -> driver.
	p.core.Compute(s.cfg.Kernel.VFSStackLatency)

	frame, err := s.allocFrameReusing(p)
	if err != nil {
		return nil, err
	}

	devPA, err := f.PagePA(int(pageIdx))
	if err != nil {
		return nil, err
	}

	// Copy device page -> page cache frame (DMA-style streaming read,
	// batched page-granularity datapath).
	var buf aesctr.Page
	p.core.ReadPageNC(devPA, &buf)
	if s.mode == ModeSWEncrypt && f.Encrypted {
		// Software decryption of the full page, regardless of how few
		// bytes the application wanted: the 4 KB crypt granularity the
		// paper calls out.
		if c, ok := s.swCiphers[f.Ino]; ok {
			c.CryptPage(pageIdx, buf[:])
		}
		p.core.Compute(s.cfg.Kernel.SWCryptoPer16B * (config.PageSize / 16))
		s.nSWDecrypts.Add(1)
	}
	p.core.WritePageNT(frame, &buf)
	p.core.Compute(s.cfg.Kernel.CopyPer64B * config.LinesPerPage)

	pg := &pagecache.Page{Key: key, Frame: frame}
	s.frameRefs[frame] = key
	if victim := s.pageCache.Insert(pg); victim != nil {
		s.evictPage(p, victim)
	}
	s.nPageCacheLoads.Add(1)
	return pg, nil
}

// allocFrameReusing allocates a frame, recycling frames of evicted pages.
func (s *System) allocFrameReusing(p *Process) (addr.Phys, error) {
	if len(s.freeFrames) > 0 {
		f := s.freeFrames[len(s.freeFrames)-1]
		s.freeFrames = s.freeFrames[:len(s.freeFrames)-1]
		return f, nil
	}
	return s.allocFrame()
}

// evictPage removes an evicted page-cache page: writes it back if dirty,
// unmaps it from every process, and recycles the frame.
func (s *System) evictPage(p *Process, victim *pagecache.Page) {
	if victim.Dirty {
		s.writebackPage(p, victim)
	}
	delete(s.frameRefs, victim.Frame)
	for _, proc := range s.procs {
		for vp, e := range proc.pt {
			if e.cachePage == victim {
				delete(proc.pt, vp)
			}
		}
	}
	s.freeFrames = append(s.freeFrames, victim.Frame)
}

// writebackPage copies a dirty page-cache page back to the device region,
// re-encrypting it in software first when eCryptfs-style encryption is on.
func (s *System) writebackPage(p *Process, pg *pagecache.Page) {
	f, ok := s.FS.ByIno(pg.Key.Ino)
	if !ok {
		pg.Dirty = false
		return // file deleted underneath us
	}
	devPA, err := f.PagePA(int(pg.Key.PageIdx))
	if err != nil {
		pg.Dirty = false
		return
	}
	p.core.Compute(s.cfg.Kernel.VFSStackLatency)
	var buf aesctr.Page
	p.core.ReadPageNC(pg.Frame, &buf)
	if s.mode == ModeSWEncrypt && f.Encrypted {
		if c, ok := s.swCiphers[f.Ino]; ok {
			c.CryptPage(pg.Key.PageIdx, buf[:])
		}
		p.core.Compute(s.cfg.Kernel.SWCryptoPer16B * (config.PageSize / 16))
		s.nSWEncrypts.Add(1)
	}
	// Non-temporal copy back to the device; the fence makes it durable.
	p.core.WritePageNT(devPA, &buf)
	p.core.Fence()
	pg.Dirty = false
	pg.PersistCount = 0
	s.nPageCacheWritebacks.Add(1)
}
