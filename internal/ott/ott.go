// Package ott implements the Open Tunnel Table (§III-E): the on-chip
// hardware structure mapping (Group ID, File ID) to a 128-bit file key, plus
// the dedicated encrypted OTT region in memory that overflows are evicted
// to after sealing with a processor-resident OTT key.
//
// The table is organised as eight fully-associative 128-entry banks searched
// in parallel; to avoid TLB-like power cost the lookup takes 20 cycles
// (Table III). OTT updates happen only at file creation and page faults, so
// they are rare.
package ott

import (
	"fsencr/internal/aesctr"
	"fsencr/internal/obsplane/journal"
	"fsencr/internal/telemetry"
)

// Entry is one OTT record.
type Entry struct {
	Group uint32 // 18-bit group ID
	File  uint16 // 14-bit file ID
	Key   aesctr.Key
}

type slot struct {
	e       Entry
	valid   bool
	lastUse uint64
}

// Table is the on-chip OTT.
type Table struct {
	slots []slot
	clock uint64

	Hits      uint64
	Misses    uint64
	Evictions uint64
	Inserts   uint64

	tHits      *telemetry.Counter
	tMisses    *telemetry.Counter
	tEvictions *telemetry.Counter
	tInserts   *telemetry.Counter
	tOccupancy *telemetry.Gauge

	// Security-event journal. The table has no clock of its own, so the
	// owner (the memory controller) supplies one reading the simulated
	// cycle of the operation in flight.
	jrn       *journal.Journal
	jclock    func() uint64
	refilling bool
}

// Instrument attaches telemetry handles. A nil registry detaches (all
// handles become no-ops).
func (t *Table) Instrument(reg *telemetry.Registry) {
	t.tHits = reg.Counter("ott.table_hits")
	t.tMisses = reg.Counter("ott.table_misses")
	t.tEvictions = reg.Counter("ott.table_evictions")
	t.tInserts = reg.Counter("ott.table_inserts")
	t.tOccupancy = reg.Gauge("ott.table_occupancy")
}

// AttachJournal attaches a security-event journal and the simulated-cycle
// clock events are stamped with. A nil journal detaches.
func (t *Table) AttachJournal(j *journal.Journal, clock func() uint64) {
	t.jrn = j
	t.jclock = clock
}

func (t *Table) jcycle() uint64 {
	if t.jclock == nil {
		return 0
	}
	return t.jclock()
}

// NewTable builds an OTT with banks*perBank entries.
func NewTable(banks, perBank int) *Table {
	if banks <= 0 || perBank <= 0 {
		panic("ott: non-positive geometry")
	}
	return &Table{slots: make([]slot, banks*perBank)}
}

// Capacity returns the total entry count.
func (t *Table) Capacity() int { return len(t.slots) }

// Len returns the number of valid entries.
func (t *Table) Len() int {
	n := 0
	for i := range t.slots {
		if t.slots[i].valid {
			n++
		}
	}
	return n
}

// Lookup searches all banks in parallel for (group, file).
func (t *Table) Lookup(group uint32, file uint16) (aesctr.Key, bool) {
	t.clock++
	for i := range t.slots {
		s := &t.slots[i]
		if s.valid && s.e.Group == group && s.e.File == file {
			s.lastUse = t.clock
			t.Hits++
			t.tHits.Inc()
			return s.e.Key, true
		}
	}
	t.Misses++
	t.tMisses.Inc()
	return aesctr.Key{}, false
}

// Peek is Lookup without side effects: no clock tick, no LRU refresh, no
// hit/miss counters, no telemetry. The concurrent read fast-path uses it
// to resolve keys from a reader goroutine while no mutation bracket runs;
// Lookup, under the machine lock, remains the only mutating search.
func (t *Table) Peek(group uint32, file uint16) (aesctr.Key, bool) {
	for i := range t.slots {
		s := &t.slots[i]
		if s.valid && s.e.Group == group && s.e.File == file {
			return s.e.Key, true
		}
	}
	return aesctr.Key{}, false
}

// Insert adds (or refreshes) an entry. If the table is full, the least
// recently used entry is evicted and returned for sealing into the
// encrypted OTT region.
func (t *Table) Insert(e Entry) (evicted Entry, hasEvict bool) {
	t.clock++
	t.Inserts++
	t.tInserts.Inc()
	if t.tOccupancy != nil {
		defer func() { t.tOccupancy.Set(uint64(t.Len())) }()
	}
	var victim *slot
	for i := range t.slots {
		s := &t.slots[i]
		if s.valid && s.e.Group == e.Group && s.e.File == e.File {
			s.e = e
			s.lastUse = t.clock
			return Entry{}, false
		}
		if !s.valid {
			if victim == nil || victim.valid {
				victim = s
			}
			continue
		}
		if victim == nil || (victim.valid && s.lastUse < victim.lastUse) {
			victim = s
		}
	}
	if victim.valid {
		evicted = victim.e
		hasEvict = true
		t.Evictions++
		t.tEvictions.Inc()
		t.jrn.Emit(journal.Event{Cycle: t.jcycle(), Type: journal.OTTEvict,
			Group: evicted.Group, File: evicted.File})
	}
	victim.e = e
	victim.valid = true
	victim.lastUse = t.clock
	typ := journal.OTTOpen
	if t.refilling {
		typ = journal.OTTRefill
	}
	t.jrn.Emit(journal.Event{Cycle: t.jcycle(), Type: typ, Group: e.Group, File: e.File})
	return evicted, hasEvict
}

// Refill is Insert for an entry restored from the encrypted OTT region:
// identical mechanics, but the journal records an ott_refill rather than a
// fresh tunnel open.
func (t *Table) Refill(e Entry) (evicted Entry, hasEvict bool) {
	t.refilling = true
	defer func() { t.refilling = false }()
	return t.Insert(e)
}

// Remove deletes the entry for (group, file) if present (file deletion).
func (t *Table) Remove(group uint32, file uint16) bool {
	for i := range t.slots {
		s := &t.slots[i]
		if s.valid && s.e.Group == group && s.e.File == file {
			s.valid = false
			t.jrn.Emit(journal.Event{Cycle: t.jcycle(), Type: journal.OTTClose,
				Group: group, File: file})
			return true
		}
	}
	return false
}

// Entries returns a copy of all valid entries (used to flush the table to
// the encrypted region on shutdown/crash with backup power, §III-H, and for
// filesystem transport, §VI).
func (t *Table) Entries() []Entry {
	out := make([]Entry, 0, len(t.slots))
	for i := range t.slots {
		if t.slots[i].valid {
			out = append(out, t.slots[i].e)
		}
	}
	return out
}

// Clear invalidates every entry (crash without backup power, or locking
// FsEncr decryption after a failed admin authentication, §VI).
func (t *Table) Clear() {
	for i := range t.slots {
		t.slots[i] = slot{}
	}
}
