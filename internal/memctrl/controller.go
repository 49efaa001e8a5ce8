// Package memctrl implements the secure memory controller at the heart of
// FsEncr (§III). It steers requests by the DF-bit in the physical address:
// ordinary lines go through counter-mode memory encryption only, while DAX
// file lines are additionally encrypted with a per-file key resolved through
// the Open Tunnel Table, using the File Encryption Counter Block's
// (GroupID, FileID) tag. The final one-time pad for a file line is
// OTP_mem XOR OTP_file (Figure 7).
//
// The controller owns the security metadata (MECB/FECB counter blocks), the
// dedicated metadata cache, the Bonsai Merkle Tree over the metadata region,
// the OTT and its encrypted memory region, the Osiris-style crash
// consistency state, and the PCM device itself.
//
// File map: datapath.go is the live Figure-7 datapath (a request is a run
// of n lines); readonly.go the crypt context every pad is built through and
// snapshot reads; metadata.go the counter-block store (one map of blocks by
// slot, see memSlot) with its fetch and persistence; keys.go OTT and MMIO
// operations; crash.go Osiris recovery; image.go the module image (the
// one snapshot and the one install, §VI's move and migration's gates);
// lifecycle.go file-key rotation and the §VI move; hooks.go the
// physical-attacker hooks.
package memctrl

import (
	"slices"
	"sync/atomic"

	"fsencr/internal/aesctr"
	"fsencr/internal/audit"
	"fsencr/internal/cache"
	"fsencr/internal/config"
	"fsencr/internal/counters"
	"fsencr/internal/merkle"
	"fsencr/internal/obsplane/journal"
	"fsencr/internal/ott"
	"fsencr/internal/pcm"
	"fsencr/internal/stats"
	"fsencr/internal/telemetry"
)

// Physical layout of the metadata structures. Data lives below MetaBase;
// the regions above are reserved for the controller (not addressable by
// software, which is what protects the OTT region from kernel/user access).
const (
	// MetaBase is the start of the counter-block region, one 64-byte line
	// per slot: page p's MECB at MetaBase + 128p, its FECB at MetaBase +
	// 128p + 64 ("a file encryption counter block follows each memory
	// encryption counter block").
	MetaBase = 1 << 40
	// MTBase is the start of the Merkle-tree node storage.
	MTBase = 1 << 41
	// OTTBase is the start of the encrypted OTT region.
	OTTBase = 1 << 42
	// AuditBase is the start of the reserved audit-log region (FOX-style
	// hash-chained access records, internal/audit).
	AuditBase = 1 << 43
	// MaxDataBytes bounds the software-visible physical space (16 GB
	// device, Table III), so page numbers fit the Merkle tree coverage.
	MaxDataBytes = 16 << 30
)

// Mode selects which hardware protections are active.
type Mode struct {
	// MemEncryption enables counter-mode memory encryption + BMT (the
	// paper's "Baseline Security").
	MemEncryption bool
	// FileEncryption additionally enables the FsEncr file datapath
	// (FECB + OTT + second OTP).
	FileEncryption bool
}

// Controller is the secure memory controller.
type Controller struct {
	cfg  config.Config
	mode Mode
	st   *stats.Set
	n    events // handles on st's "mc." counters
	// chipSeq is the per-chip key-derivation sequence the controller was
	// built with. Controllers sharing a chipSeq derive identical memory
	// and OTT keys — the property shard migration and replication rely on
	// to make replayed ciphertext and sealed OTT buckets byte-identical.
	chipSeq uint64

	PCM *pcm.Memory

	// rd is the machine lock holder's crypt context — the engines and pad
	// buffers behind every pad the live datapath, re-encryption, recovery
	// and the attack hooks build. Snapshot readers get their own
	// (NewReader).
	rd *Reader
	// metaCache is the shared metadata cache; when partitioning is on,
	// metaCaches[0..2] hold the MECB / FECB / tree-node partitions and
	// metaCache aliases partition 0 for legacy accessors.
	metaCache  *cache.Cache
	metaCaches [3]*cache.Cache
	mt         *merkle.Tree

	ctr map[uint64]*counters.CB // current counter blocks, by slot

	ottTable  *ott.Table
	ottRegion *ott.Region

	// Osiris crash-consistency state.
	persisted   map[uint64]counters.CB // slot -> the block as last written to NVM
	unpersisted map[uint64]int         // slot -> bumps since persist
	ecc         map[uint64]*eccPage    // page number -> the ECC-embedded check tags of its lines
	crashed     bool

	// Pre-crash snapshots, which VerifyRecovery checks recovery against —
	// in tests and in VerifyImage, migration's cutover gate.
	preCrash     map[uint64]*counters.CB
	preCrashRoot merkle.Hash

	// locked disables the file-decryption datapath, as after a failed
	// admin authentication at boot (§VI): only memory encryption functions.
	locked bool

	// encScratch is the serialization buffer of enc: counter blocks
	// re-encode on every fetch and bump, and the datapath is
	// single-threaded per controller, so one caller-owned line avoids a
	// 64-byte heap escape per metadata access. Consumers (tree hash, MAC
	// check) read the bytes synchronously and never retain the slice.
	encScratch counters.Block
	// mtPath is the reusable Merkle path-walk buffer of fetchMeta and
	// touchDirtyCounter (same single-threaded-datapath argument).
	mtPath []merkle.NodeID
	// lineStart/lineDone carry a request's per-line issue and completion
	// times between the datapath and the PCM model (accessLines).
	lineStart [config.LinesPerPage]config.Cycle
	lineDone  [config.LinesPerPage]config.Cycle

	// writeQueue holds the completion times of in-flight writes in
	// ascending order. Writes are posted: the core's CLWB/SFENCE completes
	// when the store is *accepted* into the controller's persistence
	// domain (ADR), not when the PCM array write finishes. Backpressure
	// appears only when the queue fills. The queue is a window of
	// wqBufs[wqSide]; the other buffer is the target of the next merge
	// (postWrites).
	writeQueue []config.Cycle
	wqSide     int

	violations uint64

	// Telemetry. All nil (no-op) until Instrument is called.
	tel          *telemetry.Registry
	trace        *telemetry.TraceScope
	tReadCycles  *telemetry.Histogram
	tWriteAccept *telemetry.Histogram
	tMetaFetch   *telemetry.Histogram
	tBMTWalk     *telemetry.Histogram
	tKeyLookup   *telemetry.Histogram

	// Security-event journal (nil until AttachJournal) and the simulated
	// cycle of the request currently in the datapath, which stamps events
	// emitted from structures that have no clock of their own (OTT, tree).
	jrn    *journal.Journal
	jcycle uint64

	// Tamper-evident access-audit log (nil until EnableAudit): hash-chained
	// page-access records written through to the reserved region at
	// AuditBase.
	aud *audit.Log

	// Last, so the 4 KiB of queue buffers leave the other fields together.
	wqBufs [2][4 * writeQueueDepth]config.Cycle
}

// writeQueueDepth is the number of in-flight writes the controller buffers.
// A run claims its slots before it posts its completions, so right after a
// page burst the queue may hold up to 2*writeQueueDepth-1 entries.
const writeQueueDepth = 64

// retireWrites drops completed writes, a prefix of the queue.
func (c *Controller) retireWrites(now config.Cycle) {
	q := c.writeQueue
	for len(q) > 0 && q[0] <= now {
		q = q[1:]
	}
	c.writeQueue = q
}

// postWrites adds a request's completion times to the queue, reordering
// dones. A lone line inserts in place, moving only the entries after it. A
// run sorts its completions once and merges them with the queue into the
// spare buffer, which then holds the queue; so does a lone line that finds
// no room after the queue's end.
func (c *Controller) postWrites(dones []config.Cycle) {
	q := c.writeQueue
	if len(dones) == 1 && len(q) < cap(q) {
		i, d := len(q), dones[0]
		q = q[:i+1]
		for ; i > 0 && q[i-1] > d; i-- {
			q[i] = q[i-1]
		}
		q[i] = d
		c.writeQueue = q
		return
	}
	slices.Sort(dones)
	c.wqSide ^= 1
	out := c.wqBufs[c.wqSide][:0]
	for len(q) > 0 && len(dones) > 0 {
		if q[0] <= dones[0] {
			out, q = append(out, q[0]), q[1:]
		} else {
			out, dones = append(out, dones[0]), dones[1:]
		}
	}
	c.writeQueue = append(append(out, q...), dones...)
}

// acceptSlot grants one persistence-domain slot at now, popping the
// earliest in-flight completion when the queue is full. A request retires
// once at its arrival time and then claims one slot per line back-to-back.
func (c *Controller) acceptSlot(now config.Cycle) config.Cycle {
	if len(c.writeQueue) < writeQueueDepth {
		return now + 1
	}
	// Queue full: wait for the earliest in-flight write to retire.
	c.n.writeQueueStalls.Add(1)
	earliest := c.writeQueue[0]
	c.writeQueue = c.writeQueue[1:]
	return earliest + 1
}

// instanceSeq gives every controller distinct processor keys (fuses differ
// chip to chip). It is the only state shared across controllers, and it is
// bumped atomically because the parallel experiment runner boots systems
// concurrently. Key material only shapes the ciphertext bytes at rest,
// never the measured statistics, so simulations stay deterministic even
// though concurrent batches may assign sequence numbers in any order.
var instanceSeq atomic.Uint64

// New builds a controller in the given mode. All keys (memory key, OTT key)
// are generated inside the "processor" and never exposed.
func New(cfg config.Config, mode Mode, st *stats.Set) *Controller {
	return NewWithChipSeq(cfg, mode, st, 0)
}

// NewWithChipSeq builds a controller with an explicit chip sequence
// number. The cluster fabric uses it to give a shard's replicas and
// migration targets the same processor keys as the primary, so state
// reconstructed by admission-log replay is byte-identical down to the
// ciphertext; tests that compare ciphertext across two controllers do the
// same. seq 0 takes the next per-process sequence.
func NewWithChipSeq(cfg config.Config, mode Mode, st *stats.Set, seq uint64) *Controller {
	if seq == 0 {
		seq = instanceSeq.Add(1)
	}
	c := &Controller{
		cfg:         cfg,
		mode:        mode,
		st:          st,
		n:           resolveEvents(st),
		PCM:         pcm.New(cfg.PCM, st),
		ctr:         make(map[uint64]*counters.CB),
		persisted:   make(map[uint64]counters.CB),
		unpersisted: make(map[uint64]int),
		ecc:         make(map[uint64]*eccPage),
		rd:          &Reader{engines: make(map[aesctr.Key]*aesctr.Engine)},
	}
	if mode.MemEncryption {
		if cfg.Security.PartitionMetadataCache {
			// Equitable split: half for the tree nodes (they are the
			// deepest structure), a quarter each for MECB and FECB.
			quarter := cfg.Security.MetadataCacheSize / 4
			c.metaCaches[0] = cache.New("metadata.mecb", quarter, cfg.Security.MetadataCacheWays)
			c.metaCaches[1] = cache.New("metadata.fecb", quarter, cfg.Security.MetadataCacheWays)
			c.metaCaches[2] = cache.New("metadata.mt", 2*quarter, cfg.Security.MetadataCacheWays)
			c.metaCache = c.metaCaches[0]
		} else {
			c.metaCache = cache.New("metadata", cfg.Security.MetadataCacheSize, cfg.Security.MetadataCacheWays)
			c.metaCaches = [3]*cache.Cache{c.metaCache, c.metaCache, c.metaCache}
		}
		c.mt = merkle.New(cfg.Security.MerkleArity, cfg.Security.MerkleLevels)
	}
	if mode.FileEncryption {
		c.ottTable = ott.NewTable(cfg.Security.OTTBanks, cfg.Security.OTTEntriesPerBank)
	}
	c.adoptChip(seq)
	return c
}

// ChipSeq returns the chip key-derivation sequence number.
func (c *Controller) ChipSeq() uint64 { return c.chipSeq }

// adoptChip is the one place a chip's keys come from: it takes seq as the
// controller's chip sequence and derives the memory engine and the sealed
// OTT region's key from it. The region starts empty and reports to the
// controller's telemetry registry.
func (c *Controller) adoptChip(seq uint64) {
	c.chipSeq = seq
	if c.mode.MemEncryption {
		c.rd.mem = aesctr.New(deriveKey("fsencr-memory-key", seq), c.cfg.Security.AESLatency)
	}
	if c.mode.FileEncryption {
		c.ottRegion = ott.NewRegion(deriveKey("fsencr-ott-key", seq), 1024)
		c.ottRegion.Instrument(c.tel)
	}
}

// deriveKey produces a deterministic per-purpose, per-chip key for
// reproducible simulations (a real controller would use a hardware RNG /
// fuses).
func deriveKey(label string, seq uint64) aesctr.Key {
	var k aesctr.Key
	h := uint64(1469598103934665603)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	h ^= seq * 0x9e3779b97f4a7c15
	for i := range k {
		h ^= h << 13
		h ^= h >> 7
		h ^= h << 17
		k[i] = byte(h)
	}
	return k
}

// events is the controller's event counters as handles resolved once, when
// the controller is built: an increment on the datapath is an add through a
// pointer, not a string-hashed map access per event. A handle registers its
// name at its first increment, so a counter whose event never happened stays
// absent from the set exactly as it did when incremented by name.
type events struct {
	reads, writes, writeQueueStalls                 stats.Counter
	metaHits, metaMisses, metaReads, metaWritebacks stats.Counter
	mtHits, mtMisses, integrityViolations           stats.Counter
	stoplossPersists, recoveredLines                stats.Counter
	reencryptions                                   [2]stats.Counter // by counters.Kind
	ottHits, ottMisses, ottEvictions                stats.Counter
	keyInstalls, keyRemovals, keyRotations          stats.Counter
	keyUnavailable, dataECCErrors                   stats.Counter
	pageTags, pageShreds, imports                   stats.Counter
}

func resolveEvents(st *stats.Set) events {
	return events{
		reads:               st.Counter("mc.reads"),
		writes:              st.Counter("mc.writes"),
		writeQueueStalls:    st.Counter("mc.write_queue_stalls"),
		metaHits:            st.Counter("mc.meta_hits"),
		metaMisses:          st.Counter("mc.meta_misses"),
		metaReads:           st.Counter("mc.meta_reads"),
		metaWritebacks:      st.Counter("mc.meta_writebacks"),
		mtHits:              st.Counter("mc.mt_hits"),
		mtMisses:            st.Counter("mc.mt_misses"),
		integrityViolations: st.Counter("mc.integrity_violations"),
		stoplossPersists:    st.Counter("mc.stoploss_persists"),
		recoveredLines:      st.Counter("mc.recovered_lines"),
		reencryptions: [2]stats.Counter{
			counters.Mem:  st.Counter("mc.mem_reencryptions"),
			counters.File: st.Counter("mc.file_reencryptions"),
		},
		ottHits:        st.Counter("mc.ott_hits"),
		ottMisses:      st.Counter("mc.ott_misses"),
		ottEvictions:   st.Counter("mc.ott_evictions"),
		keyInstalls:    st.Counter("mc.key_installs"),
		keyRemovals:    st.Counter("mc.key_removals"),
		keyRotations:   st.Counter("mc.key_rotations"),
		keyUnavailable: st.Counter("mc.key_unavailable"),
		dataECCErrors:  st.Counter("mc.data_ecc_errors"),
		pageTags:       st.Counter("mc.page_tags"),
		pageShreds:     st.Counter("mc.page_shreds"),
		imports:        st.Counter("mc.imports"),
	}
}

// Mode returns the active protection mode.
func (c *Controller) Mode() Mode { return c.mode }

// Stats returns the controller's counter set.
func (c *Controller) Stats() *stats.Set { return c.st }

// MetadataCache exposes the (first partition of the) metadata cache, for
// sensitivity studies and tests.
func (c *Controller) MetadataCache() *cache.Cache { return c.metaCache }

// mcacheFor routes a metadata address to its cache partition: a counter
// block to its kind's (MECBs 0, FECBs 1), and everything else (Merkle nodes
// and OTT buckets) to the tree partition. With partitioning off, all three
// entries alias the shared cache.
func (c *Controller) mcacheFor(metaAddr uint64) *cache.Cache {
	if slot, ok := addrSlot(metaAddr); ok {
		return c.metaCaches[slotKind(slot)]
	}
	return c.metaCaches[2]
}

// clearMetaCaches wipes every partition (power loss).
func (c *Controller) clearMetaCaches() {
	seen := map[*cache.Cache]bool{}
	for _, mc := range c.metaCaches {
		if mc != nil && !seen[mc] {
			mc.Clear()
			seen[mc] = true
		}
	}
}

// MetaHitRate aggregates hit rates across partitions.
func (c *Controller) MetaHitRate() float64 {
	var hits, total uint64
	seen := map[*cache.Cache]bool{}
	for _, mc := range c.metaCaches {
		if mc == nil || seen[mc] {
			continue
		}
		seen[mc] = true
		hits += mc.Hits
		total += mc.Hits + mc.Misses
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// OTT exposes the on-chip table (for inspection in tests/examples).
func (c *Controller) OTT() *ott.Table { return c.ottTable }

// OTTRegion exposes the encrypted in-memory OTT region.
func (c *Controller) OTTRegion() *ott.Region { return c.ottRegion }

// MerkleRoot returns the processor-resident tree root.
func (c *Controller) MerkleRoot() merkle.Hash {
	if c.mt == nil {
		return merkle.Hash{}
	}
	return c.mt.Root()
}

// IntegrityViolations returns how many metadata integrity failures the
// controller has detected (tampered/replayed metadata).
func (c *Controller) IntegrityViolations() uint64 { return c.violations }

// Lock disables the FsEncr file-decryption datapath (failed boot-time admin
// authentication, §VI): requests still decrypt with the memory key only, so
// an attacker who boots an alien OS sees file bytes still wrapped in the
// file OTP.
func (c *Controller) Lock() { c.locked = true }

// Unlock re-enables the file datapath after successful authentication.
func (c *Controller) Unlock() { c.locked = false }

// Locked reports whether the file datapath is locked.
func (c *Controller) Locked() bool { return c.locked }

// Counter-block slots. The counter region is an array of 64-byte lines and
// a slot is an index into it: page p's MECB is slot 2p, its FECB slot 2p+1.
// A slot is at once the key of the controller's counter maps, the block's
// Merkle leaf, its metadata address over the line size, and — by parity —
// its kind, so nothing else about a block says which of the two it is.
const counterSlots = 2 * (MaxDataBytes / config.PageSize)

func memSlot(page uint64) uint64         { return 2 * page }
func fileSlot(page uint64) uint64        { return 2*page + 1 }
func slotKind(slot uint64) counters.Kind { return counters.Kind(slot % 2) }
func slotAddr(slot uint64) uint64        { return MetaBase + slot*config.LineSize }

// addrSlot is slotAddr's inverse; ok is false outside the counter region
// (a tree node, an OTT bucket).
func addrSlot(metaAddr uint64) (slot uint64, ok bool) {
	return (metaAddr - MetaBase) / config.LineSize, metaAddr >= MetaBase && metaAddr < MTBase
}

// Other metadata addresses, and the Merkle leaves past the counter slots:
// OTT region bucket b is leaf counterSlots+b.

func mtNodeAddr(n merkle.NodeID) uint64 {
	return MTBase + uint64(n.Level)<<36 + uint64(n.Index)*config.LineSize
}
func ottBucketAddr(bucket int) uint64 { return OTTBase + uint64(bucket)*config.LineSize }
func ottLeaf(bucket int) int          { return counterSlots + bucket }
