// Package memtrace records and replays memory-access traces of the simulated
// machine — the classic trace-driven interface of memory-system simulators.
// A Recorder attached to a machine captures every load, store, CLWB and
// SFENCE with its physical address (including the DF-bit); the trace can be
// serialized to a compact binary stream and later replayed against a
// machine in any protection mode, reproducing the access pattern without
// re-running the workload's software stack.
package memtrace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"fsencr/internal/addr"
	"fsencr/internal/config"
	"fsencr/internal/machine"
)

// Event kinds (machine.Tracer's kind byte).
const (
	KindRead  = 'R'
	KindWrite = 'W'
	KindFlush = 'F'
	KindFence = 'S'
)

// Event is one recorded memory operation.
type Event struct {
	Core int
	Kind byte
	PA   addr.Phys
	Len  int
}

// Recorder captures machine events. Attach with machine.SetTracer.
type Recorder struct {
	Events []Event
}

var _ machine.Tracer = (*Recorder)(nil)

// Event implements machine.Tracer.
func (r *Recorder) Event(core int, kind byte, pa addr.Phys, n int) {
	r.Events = append(r.Events, Event{Core: core, Kind: kind, PA: pa, Len: n})
}

// Binary format: magic, version, count, then per event:
// core(u8) kind(u8) len(u16) pa(u64), little-endian.
const (
	magic   = 0x46534e4354524143 // "FSNCTRAC"
	version = 1
)

// Write serializes events to w.
func Write(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	var hdr [24]byte
	binary.LittleEndian.PutUint64(hdr[0:8], magic)
	binary.LittleEndian.PutUint64(hdr[8:16], version)
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(len(events)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var rec [12]byte
	for _, e := range events {
		if e.Len > 0xFFFF {
			return fmt.Errorf("memtrace: event length %d exceeds format limit", e.Len)
		}
		rec[0] = byte(e.Core)
		rec[1] = e.Kind
		binary.LittleEndian.PutUint16(rec[2:4], uint16(e.Len))
		binary.LittleEndian.PutUint64(rec[4:12], uint64(e.PA))
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ErrBadTrace reports a malformed or incompatible trace stream.
var ErrBadTrace = errors.New("memtrace: bad or incompatible trace stream")

// Read deserializes a trace written by Write.
func Read(r io.Reader) ([]Event, error) {
	br := bufio.NewReader(r)
	var hdr [24]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	if binary.LittleEndian.Uint64(hdr[0:8]) != magic {
		return nil, fmt.Errorf("%w: wrong magic", ErrBadTrace)
	}
	if binary.LittleEndian.Uint64(hdr[8:16]) != version {
		return nil, fmt.Errorf("%w: unsupported version", ErrBadTrace)
	}
	n := binary.LittleEndian.Uint64(hdr[16:24])
	const maxEvents = 1 << 30
	if n > maxEvents {
		return nil, fmt.Errorf("%w: implausible event count %d", ErrBadTrace, n)
	}
	events := make([]Event, 0, n)
	var rec [12]byte
	for i := uint64(0); i < n; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("%w: truncated at event %d", ErrBadTrace, i)
		}
		events = append(events, Event{
			Core: int(rec[0]),
			Kind: rec[1],
			Len:  int(binary.LittleEndian.Uint16(rec[2:4])),
			PA:   addr.Phys(binary.LittleEndian.Uint64(rec[4:12])),
		})
	}
	return events, nil
}

// Stats summarizes a trace.
type Stats struct {
	Events      int
	Reads       int
	Writes      int
	Flushes     int
	Fences      int
	Cores       int
	BytesRead   uint64
	BytesWrite  uint64
	DFAccesses  int
	UniquePages int
}

// Summarize computes trace statistics.
func Summarize(events []Event) Stats {
	var s Stats
	s.Events = len(events)
	pages := make(map[uint64]struct{})
	maxCore := -1
	for _, e := range events {
		if e.Core > maxCore {
			maxCore = e.Core
		}
		switch e.Kind {
		case KindRead:
			s.Reads++
			s.BytesRead += uint64(e.Len)
		case KindWrite:
			s.Writes++
			s.BytesWrite += uint64(e.Len)
		case KindFlush:
			s.Flushes++
		case KindFence:
			s.Fences++
		}
		if e.Kind != KindFence {
			pages[e.PA.PageNum()] = struct{}{}
			if e.PA.IsDF() {
				s.DFAccesses++
			}
		}
	}
	s.Cores = maxCore + 1
	s.UniquePages = len(pages)
	return s
}

// Prepare installs the controller state a raw replay needs: every DF-tagged
// page in the trace gets a synthetic file identity and key, as the kernel
// would have provided at fault time. Timing-faithful, key-management-free.
func Prepare(m *machine.Machine, events []Event) {
	const group, file = 1, 1
	var key [config.KeySize]byte
	for i := range key {
		key[i] = 0x7E ^ byte(i)
	}
	m.MC.InstallKey(0, group, file, key)
	seen := make(map[uint64]struct{})
	for _, e := range events {
		if e.Kind == KindFence || !e.PA.IsDF() {
			continue
		}
		pn := e.PA.PageNum()
		if _, ok := seen[pn]; ok {
			continue
		}
		seen[pn] = struct{}{}
		m.MC.TagPage(0, e.PA, group, file)
	}
}

// Replay executes the trace against m, returning the wall-clock cycles of
// the replay (max core time delta). Data values are immaterial for timing:
// writes store a fixed pattern.
func Replay(m *machine.Machine, events []Event) (config.Cycle, error) {
	start := m.MaxCoreTime()
	buf := make([]byte, 0xFFFF)
	for i := range buf {
		buf[i] = byte(i)
	}
	for _, e := range events {
		if e.Core >= m.Cores() {
			return 0, fmt.Errorf("memtrace: event core %d beyond machine's %d cores", e.Core, m.Cores())
		}
		co := m.Core(e.Core)
		switch e.Kind {
		case KindRead:
			co.Read(e.PA, buf[:e.Len])
		case KindWrite:
			co.Write(e.PA, buf[:e.Len])
		case KindFlush:
			co.Flush(e.PA)
		case KindFence:
			co.Fence()
		default:
			return 0, fmt.Errorf("memtrace: unknown event kind %q", e.Kind)
		}
	}
	return m.MaxCoreTime() - start, nil
}
