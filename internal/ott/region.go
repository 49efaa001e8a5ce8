package ott

import (
	"encoding/binary"
	"errors"

	"fsencr/internal/aesctr"
	"fsencr/internal/telemetry"
)

// SealedSize is the size of one sealed OTT record in the encrypted OTT
// memory region: two AES blocks holding {group, file, key, magic, slot}.
const SealedSize = 32

// Sealed is one encrypted OTT record as it appears in NVM.
type Sealed [SealedSize]byte

// Region models the dedicated encrypted OTT region in memory: a
// set-associative hash table maintained by the memory controller, sealed
// with the OTT key (which never leaves the processor). Even if the general
// memory encryption key is compromised, file keys dumped here remain
// protected (§VI, "Memory Encryption Key Revealed").
type Region struct {
	eng     *aesctr.Engine
	buckets int
	table   [][]Sealed

	Lookups uint64
	Stores  uint64

	tProbes    *telemetry.Counter
	tProbeHits *telemetry.Counter
	tStores    *telemetry.Counter
	tUnseals   *telemetry.Histogram
}

// Instrument attaches telemetry handles. A nil registry detaches.
func (r *Region) Instrument(reg *telemetry.Registry) {
	r.tProbes = reg.Counter("ott.region_probes")
	r.tProbeHits = reg.Counter("ott.region_probe_hits")
	r.tStores = reg.Counter("ott.region_stores")
	r.tUnseals = reg.Histogram("ott.region_unseals_per_probe")
}

const sealedMagic = 0x5EA1

// NewRegion builds an OTT region with the given bucket count (power of two).
func NewRegion(ottKey aesctr.Key, buckets int) *Region {
	if buckets <= 0 || buckets&(buckets-1) != 0 {
		panic("ott: bucket count must be a positive power of two")
	}
	return &Region{
		eng:     aesctr.New(ottKey, 0),
		buckets: buckets,
		table:   make([][]Sealed, buckets),
	}
}

// Buckets returns the bucket count.
func (r *Region) Buckets() int { return r.buckets }

// Bucket returns the hash bucket for (group, file); the memory controller
// derives the region's physical address from it.
func (r *Region) Bucket(group uint32, file uint16) int {
	h := uint64(group)*0x9e3779b97f4a7c15 ^ uint64(file)*0xc2b2ae3d27d4eb4f
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return int(h & uint64(r.buckets-1))
}

// seal encrypts an entry for storage. The bucket index is bound into the
// plaintext so a sealed record cannot be replayed into a different bucket.
func (r *Region) seal(e Entry, bucket int) Sealed {
	var plain [SealedSize]byte
	binary.LittleEndian.PutUint32(plain[0:4], e.Group)
	binary.LittleEndian.PutUint16(plain[4:6], e.File)
	binary.LittleEndian.PutUint16(plain[6:8], sealedMagic)
	binary.LittleEndian.PutUint32(plain[8:12], uint32(bucket))
	copy(plain[12:28], e.Key[:])
	var ct Sealed
	// CBC-style chaining of the two blocks so both depend on all fields.
	r.eng.EncryptBlock16(ct[0:16], plain[0:16])
	var second [16]byte
	for i := 0; i < 16; i++ {
		second[i] = plain[16+i] ^ ct[i]
	}
	r.eng.EncryptBlock16(ct[16:32], second[:])
	return ct
}

// ErrUnsealFailed reports a sealed record that does not authenticate (wrong
// OTT key, tampering, or replay into a different bucket).
var ErrUnsealFailed = errors.New("ott: sealed record failed authentication")

// open decrypts a sealed record, validating the magic and bucket binding.
func (r *Region) open(s Sealed, bucket int) (Entry, error) {
	var plain [SealedSize]byte
	r.eng.DecryptBlock16(plain[0:16], s[0:16])
	var second [16]byte
	r.eng.DecryptBlock16(second[:], s[16:32])
	for i := 0; i < 16; i++ {
		plain[16+i] = second[i] ^ s[i]
	}
	if binary.LittleEndian.Uint16(plain[6:8]) != sealedMagic {
		return Entry{}, ErrUnsealFailed
	}
	if int(binary.LittleEndian.Uint32(plain[8:12])) != bucket {
		return Entry{}, ErrUnsealFailed
	}
	var e Entry
	e.Group = binary.LittleEndian.Uint32(plain[0:4])
	e.File = binary.LittleEndian.Uint16(plain[4:6])
	copy(e.Key[:], plain[12:28])
	return e, nil
}

// Store seals an evicted OTT entry into its bucket, replacing any existing
// record for the same (group, file). It returns the bucket index so the
// controller can account the NVM write.
func (r *Region) Store(e Entry) int {
	r.Stores++
	r.tStores.Inc()
	b := r.Bucket(e.Group, e.File)
	sealed := r.seal(e, b)
	for i, s := range r.table[b] {
		if ent, err := r.open(s, b); err == nil && ent.Group == e.Group && ent.File == e.File {
			r.table[b][i] = sealed
			return b
		}
	}
	r.table[b] = append(r.table[b], sealed)
	return b
}

// Lookup searches the bucket for (group, file), unsealing candidates with
// the OTT key. It returns the entry, the bucket index (for timing), and
// whether it was found.
func (r *Region) Lookup(group uint32, file uint16) (Entry, int, bool) {
	r.Lookups++
	r.tProbes.Inc()
	b := r.Bucket(group, file)
	for i, s := range r.table[b] {
		if e, err := r.open(s, b); err == nil && e.Group == group && e.File == file {
			r.tProbeHits.Inc()
			r.tUnseals.Observe(uint64(i + 1))
			return e, b, true
		}
	}
	r.tUnseals.Observe(uint64(len(r.table[b])))
	return Entry{}, b, false
}

// Peek is Lookup without side effects: no probe counters, no telemetry
// observations. open/DecryptBlock16 touch only the engine's stateless key
// schedule, so a reader goroutine can unseal concurrently with the owner
// as long as the bucket table itself is quiescent (the fast path's read
// lock guarantees that).
func (r *Region) Peek(group uint32, file uint16) (Entry, bool) {
	b := r.Bucket(group, file)
	for _, s := range r.table[b] {
		if e, err := r.open(s, b); err == nil && e.Group == group && e.File == file {
			return e, true
		}
	}
	return Entry{}, false
}

// Remove deletes the record for (group, file), returning the bucket and
// whether anything was removed (file deletion removes the key from both the
// OTT and the encrypted region, §III-E).
func (r *Region) Remove(group uint32, file uint16) (int, bool) {
	b := r.Bucket(group, file)
	for i, s := range r.table[b] {
		if e, err := r.open(s, b); err == nil && e.Group == group && e.File == file {
			r.table[b] = append(r.table[b][:i], r.table[b][i+1:]...)
			return b, true
		}
	}
	return b, false
}

// BucketRecords returns the sealed records stored in one bucket (for
// Merkle-tree coverage of the encrypted OTT region).
func (r *Region) BucketRecords(bucket int) []Sealed {
	return r.table[bucket]
}

// FlipBit flips one bit of the idx-th sealed record in bucket, behind the
// seals' and the Merkle tree's back — the chaos engine's model of a
// physical attacker rewriting the encrypted OTT region. Self-inverse.
// Returns false when the slot does not exist.
func (r *Region) FlipBit(bucket, idx, bit int) bool {
	if bucket < 0 || bucket >= r.buckets || idx < 0 || idx >= len(r.table[bucket]) {
		return false
	}
	bit %= SealedSize * 8
	r.table[bucket][idx][bit/8] ^= 1 << (bit % 8)
	return true
}

// SealedRecords returns the raw sealed bytes of every record (what an
// attacker scanning physical memory would see).
func (r *Region) SealedRecords() []Sealed {
	var out []Sealed
	for _, bucket := range r.table {
		out = append(out, bucket...)
	}
	return out
}

// ExportTable deep-copies the sealed bucket table (shard-migration image
// form). The records stay sealed: the image never exposes plaintext keys.
func (r *Region) ExportTable() [][]Sealed {
	out := make([][]Sealed, len(r.table))
	for i, b := range r.table {
		if len(b) == 0 {
			continue
		}
		out[i] = append([]Sealed(nil), b...)
	}
	return out
}

// ImportTable replaces the bucket table with an exported copy. The bucket
// count must match the region geometry (sealed records bind their bucket
// index, so records cannot be rehomed anyway).
func (r *Region) ImportTable(table [][]Sealed) error {
	if len(table) != r.buckets {
		return errors.New("ott: imported table bucket count mismatch")
	}
	r.table = make([][]Sealed, r.buckets)
	for i, b := range table {
		if len(b) == 0 {
			continue
		}
		r.table[i] = append([]Sealed(nil), b...)
	}
	return nil
}

// Len returns the number of sealed records.
func (r *Region) Len() int {
	n := 0
	for _, b := range r.table {
		n += len(b)
	}
	return n
}
