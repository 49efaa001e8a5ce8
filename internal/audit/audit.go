// Package audit is the FOX-style tamper-evident access-audit plane
// (FOX, arXiv:2104.08699): an append-only, hash-chained log of which
// tenant/GroupID touched which file pages, written by the memory
// controller as records flow through the page datapath.
//
// Each record is one 64-byte line — a cache-line-sized unit the
// controller writes through to a reserved region of the NVM device in the
// background, like its other metadata. The last 32 bytes of a record are
// its chain value: SHA-256 over the previous record's chain value and
// this record's payload. The chain head (latest chain value + sequence
// number) and the tail boundary (the chain value preceding the oldest
// retained record, once the ring has wrapped) are modelled as persistent
// processor registers, like the Merkle root: they survive power loss and
// cannot be rewritten from software. Tampering with any retained record —
// flipping a bit, reordering, truncating — breaks the recomputed chain
// against the head register, which is what Verify detects.
//
// A nil *Log is the detached recorder: Append degrades to one predictable
// branch, mirroring the telemetry registry and the journal, so the
// datapath pays nothing when auditing is off (the audit overhead guard
// pins this).
package audit

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"fsencr/internal/addr"
	"fsencr/internal/aesctr"
	"fsencr/internal/config"
	"fsencr/internal/telemetry"
)

// Op is the audited page-path operation.
type Op uint8

// Audited operations. OpMap/OpShred/OpKeyInstall/OpKeyRemove come from the
// kernel's MMIO surface (page fault tagging, secure deletion, key
// lifecycle); OpReadPage/OpWritePage from the batched page datapath.
const (
	OpMap Op = iota + 1
	OpReadPage
	OpWritePage
	OpShred
	OpKeyInstall
	OpKeyRemove
)

func (o Op) String() string {
	switch o {
	case OpMap:
		return "map"
	case OpReadPage:
		return "read_page"
	case OpWritePage:
		return "write_page"
	case OpShred:
		return "shred"
	case OpKeyInstall:
		return "key_install"
	case OpKeyRemove:
		return "key_remove"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// RecordSize is the on-device size of one audit record: exactly one line.
const RecordSize = config.LineSize

// payloadSize is the chained prefix of a record (everything but the chain
// value itself).
const payloadSize = 32

// Record is one decoded audit record.
//
// On-device layout (64 bytes):
//
//	[0:8)   Seq      record sequence number
//	[8:16)  Cycle    simulated cycle of the audited operation
//	[16:24) Page     physical page number
//	[24:28) Group    tenant GroupID from the page's FECB / MMIO op
//	[28:30) File     FileID
//	[30]    Op
//	[31]    reserved (zero)
//	[32:64) Chain    SHA-256(prev Chain || bytes [0:32))
type Record struct {
	Seq   uint64
	Cycle uint64
	Page  uint64
	Group uint32
	File  uint16
	Op    Op
	Chain [32]byte
	// Shard annotates which machine's log the record came from when a
	// multi-shard service merges logs for export; it is not part of the
	// on-device record.
	Shard int
}

// MarshalJSON renders the record for the /audit.jsonl export surface: the
// op as its symbolic name, the chain value as hex.
func (r Record) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Seq   uint64 `json:"seq"`
		Cycle uint64 `json:"cycle"`
		Op    string `json:"op"`
		Page  uint64 `json:"page"`
		Group uint32 `json:"group"`
		File  uint16 `json:"file"`
		Chain string `json:"chain"`
		Shard int    `json:"shard"`
	}{r.Seq, r.Cycle, r.Op.String(), r.Page, r.Group, r.File,
		hex.EncodeToString(r.Chain[:]), r.Shard})
}

func (r *Record) encode(line *aesctr.Line) {
	binary.LittleEndian.PutUint64(line[0:8], r.Seq)
	binary.LittleEndian.PutUint64(line[8:16], r.Cycle)
	binary.LittleEndian.PutUint64(line[16:24], r.Page)
	binary.LittleEndian.PutUint32(line[24:28], r.Group)
	binary.LittleEndian.PutUint16(line[28:30], r.File)
	line[30] = byte(r.Op)
	line[31] = 0
	copy(line[32:], r.Chain[:])
}

func decodeRecord(line *aesctr.Line) Record {
	var r Record
	r.Seq = binary.LittleEndian.Uint64(line[0:8])
	r.Cycle = binary.LittleEndian.Uint64(line[8:16])
	r.Page = binary.LittleEndian.Uint64(line[16:24])
	r.Group = binary.LittleEndian.Uint32(line[24:28])
	r.File = binary.LittleEndian.Uint16(line[28:30])
	r.Op = Op(line[30])
	copy(r.Chain[:], line[32:])
	return r
}

// Device is the NVM the log writes through to — satisfied by pcm.Memory.
type Device interface {
	ReadLine(pa addr.Phys) aesctr.Line
	WriteLine(pa addr.Phys, line aesctr.Line)
	Access(now config.Cycle, pa addr.Phys, write bool) config.Cycle
}

// DefaultCapacity is the default retained-record window: 4096 records =
// 256 KB of reserved device space.
const DefaultCapacity = 4096

// ErrChainBroken reports that the retained records do not recompute to the
// processor-held chain head — a record was tampered with, reordered, or
// lost.
var ErrChainBroken = errors.New("audit: hash chain broken")

// Log is the controller-owned audit log.
type Log struct {
	dev  Device
	base uint64
	cap  uint64

	// Persistent processor registers (survive power loss, unwritable from
	// software): the chain head and, once the ring has wrapped, the chain
	// value preceding the oldest retained record. headSeq is atomic so a
	// metrics exporter on another goroutine can read the head position
	// (HeadSeq) while the owner appends; everything else is the owner's
	// state.
	headSeq  atomic.Uint64
	headHash [32]byte
	tailHash [32]byte

	// scratch is the chain-hash input buffer (prev chain || payload);
	// caller-owned so the per-record hash allocates nothing.
	scratch [payloadSize + 32]byte

	cRecords    *telemetry.Counter
	cVerifyFail *telemetry.Counter
}

// New builds a log writing through dev at base, retaining up to capacity
// records (<= 0 uses DefaultCapacity).
func New(dev Device, base uint64, capacity int) *Log {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Log{dev: dev, base: base, cap: uint64(capacity)}
}

// Instrument attaches telemetry (nil registry detaches; handles degrade to
// no-ops).
func (l *Log) Instrument(reg *telemetry.Registry) {
	l.cRecords = reg.Counter("audit.records_total")
	l.cVerifyFail = reg.Counter("audit.verify_failures_total")
}

func (l *Log) slotAddr(seq uint64) addr.Phys {
	return addr.Phys(l.base + (seq%l.cap)*RecordSize)
}

// Append chains and persists one record. No-op on a nil (detached) log;
// the nil check stays in this inlinable wrapper so the datapath's disabled
// cost is a single branch.
func (l *Log) Append(now uint64, op Op, page uint64, group uint32, file uint16) {
	if l == nil {
		return
	}
	l.append(now, op, page, group, file)
}

func (l *Log) append(now uint64, op Op, page uint64, group uint32, file uint16) {
	seq := l.headSeq.Load()
	if seq >= l.cap {
		// The slot being overwritten holds record seq-cap, the oldest
		// retained one; its chain value becomes the new tail boundary so
		// Verify can still anchor the window.
		old := l.dev.ReadLine(l.slotAddr(seq))
		copy(l.tailHash[:], old[payloadSize:])
	}
	r := Record{Seq: seq, Cycle: now, Page: page, Group: group, File: file, Op: op}
	var line aesctr.Line
	r.encode(&line)
	copy(l.scratch[:32], l.headHash[:])
	copy(l.scratch[32:], line[:payloadSize])
	l.headHash = sha256.Sum256(l.scratch[:])
	copy(line[payloadSize:], l.headHash[:])
	pa := l.slotAddr(seq)
	l.dev.WriteLine(pa, line)
	l.dev.Access(config.Cycle(now), pa, true) // background write, like other metadata
	l.headSeq.Store(seq + 1)
	l.cRecords.Inc()
}

// Head returns the chain head registers: how many records were ever
// appended and the chain value after the newest one. The hash is
// owner-goroutine state; cross-goroutine readers that only need the
// position should use HeadSeq.
func (l *Log) Head() (seq uint64, hash [32]byte) {
	if l == nil {
		return 0, [32]byte{}
	}
	return l.headSeq.Load(), l.headHash
}

// HeadSeq returns the number of records ever appended. Safe to call from
// any goroutine (metrics export).
func (l *Log) HeadSeq() uint64 {
	if l == nil {
		return 0
	}
	return l.headSeq.Load()
}

// retained returns the sequence range [lo, hi) currently on the device.
func (l *Log) retained() (lo, hi uint64) {
	hi = l.headSeq.Load()
	if hi > l.cap {
		lo = hi - l.cap
	}
	return lo, hi
}

// Records reads the retained window back from the device, oldest first.
func (l *Log) Records() []Record {
	if l == nil {
		return nil
	}
	lo, hi := l.retained()
	out := make([]Record, 0, hi-lo)
	for seq := lo; seq < hi; seq++ {
		line := l.dev.ReadLine(l.slotAddr(seq))
		out = append(out, decodeRecord(&line))
	}
	return out
}

// Verify recomputes the hash chain over every retained record and checks
// it against the processor-held head. This is the crash-recovery and
// tamper-detection entry point: after power loss the device contents and
// the head register are all that survive, and they must agree; after any
// bit of any record is modified, they cannot.
func (l *Log) Verify() error {
	if l == nil {
		return nil
	}
	lo, hi := l.retained()
	h := [32]byte{}
	if lo > 0 {
		h = l.tailHash
	}
	var in [payloadSize + 32]byte
	for seq := lo; seq < hi; seq++ {
		line := l.dev.ReadLine(l.slotAddr(seq))
		if got := binary.LittleEndian.Uint64(line[0:8]); got != seq {
			l.cVerifyFail.Inc()
			return fmt.Errorf("%w: slot for record %d holds sequence %d", ErrChainBroken, seq, got)
		}
		copy(in[:32], h[:])
		copy(in[32:], line[:payloadSize])
		h = sha256.Sum256(in[:])
		var stored [32]byte
		copy(stored[:], line[payloadSize:])
		if stored != h {
			l.cVerifyFail.Inc()
			return fmt.Errorf("%w: record %d chain value mismatch", ErrChainBroken, seq)
		}
	}
	if hi > 0 && h != l.headHash {
		l.cVerifyFail.Inc()
		return fmt.Errorf("%w: newest record does not reach the head register", ErrChainBroken)
	}
	return nil
}

// FlipBit is the chaos/tamper hook: it flips one bit of the retained
// record seq directly on the device, behind the chain's back, as a
// physical attacker rewriting the reserved region would. Returns false if
// the record is not retained. Self-inverse.
func (l *Log) FlipBit(seq uint64, bit int) bool {
	if l == nil {
		return false
	}
	lo, hi := l.retained()
	if seq < lo || seq >= hi {
		return false
	}
	pa := l.slotAddr(seq)
	line := l.dev.ReadLine(pa)
	bit %= RecordSize * 8
	line[bit/8] ^= 1 << (bit % 8)
	l.dev.WriteLine(pa, line)
	return true
}

// WriteJSONL renders records as newline-delimited JSON — the
// /audit.jsonl export format.
func WriteJSONL(w io.Writer, recs []Record) error {
	enc := json.NewEncoder(w)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return nil
}
