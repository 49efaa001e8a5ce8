package fsproto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"fsencr/internal/audit"
	"fsencr/internal/config"
	"fsencr/internal/memctrl"
)

// The admission log: every request a logged shard admits and executes, in
// admission order, as the bytes the shard keeps, a replica pulls and a
// migration ships. A log is records back to back, each uvarint(len(body)) ‖
// body. An op record's body is
//
//	kind ‖ flags ‖ uvarint(Wait) ‖ uvarint(GID) ‖ uvarint(Session)
//	  ‖ str(Token) ‖ str(Tenant) ‖ uvarint(EUID) ‖ str(Pass)   if flagNewSession
//	  ‖ TraceID (8 bytes, big-endian) ‖ uvarint(Parent)        if flagTraced
//	  ‖ Req                                                    the rest
//
// with str(s) = uvarint(len(s)) ‖ s; a RecFlush body is kind ‖ 0, a
// RecCheckpoint body kind ‖ 0 ‖ Root, a RecLogout body kind ‖ 0 ‖
// uvarint(Session), and a RecReadDeltas body
//
//	kind ‖ 0 ‖ uvarint(Delta.Reads)
//	  ‖ uvarint(n) ‖ n·(op byte ‖ uvarint(page) ‖ uvarint(group) ‖ uvarint(file))   Delta.Audits
//	  ‖ uvarint(n) ‖ n·(uvarint(page) ‖ uvarint(line))                              Delta.ECC
//	  ‖ uvarint(n) ‖ n·(TraceID (8 bytes, big-endian) ‖ uvarint(Parent) ‖ kind)      Traces
//
// — the side effects of the reads the shard served under its read lock since the
// previous one (such a read is no record of its own). Sessions are numbered
// in order of first use and only the record introducing one carries its
// credentials, so a log describes itself from position 0, not from the
// middle. A token is introduced once: its index is a fact of the log, not of
// whoever writes it, and a RecLogout names an index introduced before it.
const (
	flagSampled = 1 << iota
	flagFramed
	flagNewSession
	flagTraced
)

// Kind is a record's kind: an op of the server's op table, whose rows follow
// this order, or a record the shard appends itself.
type Kind uint8

const (
	KindLogin Kind = iota
	KindCreate
	KindRead
	KindWrite
	KindChmod
	KindDelete
	KindKVCreate
	KindKVPut
	KindKVGet
	KindKVDelete
	RecFlush      // a writeback of every dirty line plus an OTT seal: the crash-persist path as a step
	RecCheckpoint // the Merkle root at its position, which replay verifies
	RecReadDeltas // the side effects of reads served under the read lock, applied at its position
	RecLogout     // the end of a session introduced earlier: its state on the shard is dropped
)

// NumOps is the number of op kinds, KindLogin through KindKVDelete.
const NumOps = int(RecFlush)

var kindNames = [...]string{"login", "create", "read", "write", "chmod", "delete",
	"kv_create", "kv_put", "kv_get", "kv_delete", "flush", "checkpoint", "read_deltas", "logout"}

// String is the kind's name, the root-span name of its requests.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// LogRecord is one record of a log, decoded.
type LogRecord struct {
	Kind Kind
	// Wait is the op's queue wait in simulated cycles: the shard clock at
	// service less the clock when it arrived, the one input of
	// the shard's registry that does not follow from the records before it.
	// GID is the admission group (the *target* group of a cross-tenant op).
	Wait uint64
	GID  uint32
	// Session is the acting session's index in this log. A reader fills its
	// credentials into every op record, so a replayer can rebuild a principal
	// that never logged in on the shard, and its Token into a RecLogout; a
	// writer writes them only into the record introducing it (a login's token
	// is the one the server assigned).
	Session uint32
	Token   string
	Tenant  string
	EUID    uint32
	Pass    string
	// The request's trace context: replay makes the same sampling choices.
	TraceID uint64
	Parent  uint64
	Sampled bool
	// Req is the request body exactly as the server's decoder takes it: JSON,
	// or a frame (ContentTypeFrame) when Framed. A reader's aliases its input.
	Req    []byte
	Framed bool
	Root   [32]byte // RecCheckpoint only
	// RecReadDeltas only: the reads' merged side effects, and each sampled
	// read's trace context and op.
	Delta  memctrl.ReadDelta
	Traces []ReadTrace
}

// ReadTrace is a sampled read served under the read lock: its trace and op.
type ReadTrace struct {
	TraceID, Parent uint64
	Kind            Kind
}

func (rec *LogRecord) traced() bool { return rec.TraceID != 0 || rec.Parent != 0 }

// SizeBound bounds the length of rec's encoding: its request and credentials
// plus the widest its nine varints, kind, flags and trace ID can be, and the
// widest its read deltas' entries can be.
func (rec *LogRecord) SizeBound() int {
	return len(rec.Req) + len(rec.Token) + len(rec.Tenant) + len(rec.Pass) + 9*binary.MaxVarintLen64 + 10 +
		19*(len(rec.Delta.Audits)+len(rec.Traces)) + 11*len(rec.Delta.ECC)
}

// LogWriter encodes records. A record whose Session equals Sessions()
// introduces the next session, a smaller one names a session introduced.
type LogWriter struct {
	index map[string]uint32 // token -> session index
}

// Sessions is the index the next session to be introduced takes.
func (w *LogWriter) Sessions() uint32 { return uint32(len(w.index)) }

// Session is the index of token's session in the log: the one it was
// introduced under, else Sessions(), the one a record introducing it takes.
func (w *LogWriter) Session(token string) uint32 {
	if i, ok := w.index[token]; ok {
		return i
	}
	return w.Sessions()
}

// Append appends rec's encoding to dst. A kind outside the table, a Session
// past Sessions() or one introducing a token the log knows is a caller bug:
// Append panics rather than write a log no reader accepts.
func (w *LogWriter) Append(dst []byte, rec *LogRecord) []byte {
	start, known := len(dst), w.Sessions()
	dst = append(dst, 0, byte(rec.Kind)) // a one-byte length, widened below if need be
	switch {
	case rec.Kind == RecFlush:
		dst = append(dst, 0)
	case rec.Kind == RecCheckpoint:
		dst = append(append(dst, 0), rec.Root[:]...)
	case rec.Kind == RecLogout && rec.Session < known:
		dst = binary.AppendUvarint(append(dst, 0), uint64(rec.Session))
	case rec.Kind == RecReadDeltas:
		d := &rec.Delta
		dst = binary.AppendUvarint(append(dst, 0), d.Reads)
		dst = binary.AppendUvarint(dst, uint64(len(d.Audits)))
		for _, a := range d.Audits {
			dst = binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(append(dst, byte(a.Op)), a.Page), uint64(a.Group)), uint64(a.File))
		}
		dst = binary.AppendUvarint(dst, uint64(len(d.ECC)))
		for _, e := range d.ECC {
			dst = binary.AppendUvarint(binary.AppendUvarint(dst, e.Page), uint64(e.Line))
		}
		dst = binary.AppendUvarint(dst, uint64(len(rec.Traces)))
		for _, t := range rec.Traces {
			dst = append(binary.AppendUvarint(binary.BigEndian.AppendUint64(dst, t.TraceID), t.Parent), byte(t.Kind))
		}
	case int(rec.Kind) < NumOps && (rec.Session < known || rec.Session == known && w.Session(rec.Token) == known):
		introduces := rec.Session == known
		var flags byte
		for i, set := range [...]bool{rec.Sampled, rec.Framed, introduces, rec.traced()} { // the flags, bit by bit
			if set {
				flags |= 1 << i
			}
		}
		dst = append(dst, flags)
		dst = binary.AppendUvarint(dst, rec.Wait)
		dst = binary.AppendUvarint(dst, uint64(rec.GID))
		dst = binary.AppendUvarint(dst, uint64(rec.Session))
		if introduces {
			dst = binary.AppendUvarint(appendStr(appendStr(dst, rec.Token), rec.Tenant), uint64(rec.EUID))
			dst = appendStr(dst, rec.Pass)
			if w.index == nil {
				w.index = make(map[string]uint32)
			}
			w.index[rec.Token] = known
		}
		if rec.traced() {
			dst = binary.AppendUvarint(binary.BigEndian.AppendUint64(dst, rec.TraceID), rec.Parent)
		}
		dst = append(dst, rec.Req...)
	default:
		panic(fmt.Sprintf("fsproto: unencodable log record: kind %d by session %d of %d", rec.Kind, rec.Session, known))
	}
	n := uint64(len(dst) - start - 1)
	if p := (bits.Len64(n|1) + 6) / 7; p > 1 {
		dst = append(dst, zeros[:p-1]...)
		copy(dst[start+p:], dst[start+1:])
	}
	binary.PutUvarint(dst[start:], n)
	return dst
}

func appendStr(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// ErrLog reports bytes that are not a well-formed admission log.
var ErrLog = errors.New("fsproto: malformed admission log")

// LogReader decodes a log record by record. It keeps the credentials of the
// sessions introduced so far, so one reader must be fed a log from position
// 0, in as many pieces as it arrives in, each ending on a record boundary.
type LogReader struct {
	sessions []LogRecord // the credentials of each session introduced
	tokens   map[string]bool
	n        uint64
}

// Records is the number of records decoded: the next one's log position.
func (r *LogReader) Records() uint64 { return r.n }

// Next decodes the record at the head of b into rec and returns the bytes
// after it. Every length is checked against the bytes left (a string's or
// request's against MaxBodyBytes too) before anything is allocated. A record
// truncated, of an unknown kind or flag, naming a session not introduced,
// introducing a token again or in any form but LogWriter's is refused with
// ErrLog, leaving r and rec as they were: what a reader accepts re-encodes
// to exactly its bytes.
func (r *LogReader) Next(b []byte, rec *LogRecord) ([]byte, error) {
	c := cursor{b: b}
	body := c.take(int(c.uvarint(uint64(len(b)))))
	rest := c.b
	c.b = body
	out := LogRecord{Kind: Kind(c.take(1)[0])}
	flags := c.take(1)[0]
	introduces := flags&flagNewSession != 0
	var s LogRecord
	switch known := uint32(len(r.sessions)); {
	case int(out.Kind) >= NumOps && out.Kind <= RecLogout:
		switch out.Kind {
		case RecCheckpoint:
			copy(out.Root[:], c.take(len(out.Root)))
		case RecReadDeltas:
			c.readDeltas(&out)
		case RecLogout:
			if out.Session = uint32(c.uvarint(math.MaxUint32)); out.Session >= known {
				c.fail("logout of session %d (%d introduced)", out.Session, known)
			} else {
				out.Token = r.sessions[out.Session].Token
			}
		}
		if flags != 0 || len(c.b) != 0 {
			c.fail("%v record with flags %#x and %d stray bytes", out.Kind, flags, len(c.b))
		}
	case int(out.Kind) >= NumOps || flags >= flagTraced<<1:
		c.fail("unknown record kind %d or flags %#x", out.Kind, flags)
	default:
		out.Wait, out.GID = c.uvarint(math.MaxUint64), uint32(c.uvarint(math.MaxUint32))
		switch out.Session = uint32(c.uvarint(math.MaxUint32)); {
		case introduces && out.Session == known:
			if s.Token, s.Tenant, s.EUID, s.Pass = c.str(), c.str(), uint32(c.uvarint(math.MaxUint32)), c.str(); r.tokens[s.Token] {
				c.fail("session %d reintroduces a token", known)
			}
		case introduces || out.Session >= known:
			c.fail("session %d out of order (%d introduced)", out.Session, known)
		default:
			s = r.sessions[out.Session]
		}
		if flags&flagTraced != 0 {
			out.TraceID = binary.BigEndian.Uint64(c.take(8))
			if out.Parent = c.uvarint(math.MaxUint64); !out.traced() {
				c.fail("empty trace context")
			}
		}
		if n := len(c.b); n > MaxBodyBytes {
			c.fail("%d-byte request exceeds the %d-byte body limit", n, MaxBodyBytes)
		} else if n > 0 {
			out.Req = c.b[:n:n]
		}
		out.Token, out.Tenant, out.EUID, out.Pass = s.Token, s.Tenant, s.EUID, s.Pass
		out.Sampled, out.Framed = flags&flagSampled != 0, flags&flagFramed != 0
	}
	if c.err != nil {
		return b, fmt.Errorf("record %d: %w", r.n, c.err)
	}
	if introduces {
		if r.tokens == nil {
			r.tokens = make(map[string]bool)
		}
		r.sessions, r.tokens[s.Token] = append(r.sessions, s), true
	}
	r.n++
	*rec = out
	return rest, nil
}

// readDeltas reads a RecReadDeltas body after its flags. Each count is held
// to the entries the bytes left could hold before any is appended.
func (c *cursor) readDeltas(out *LogRecord) {
	d := &out.Delta
	d.Reads = c.uvarint(math.MaxUint64)
	for n := c.uvarint(uint64(len(c.b) / 4)); n > 0; n-- {
		d.Audits = append(d.Audits, memctrl.AuditEvent{Op: audit.Op(c.take(1)[0]), Page: c.uvarint(math.MaxUint64),
			Group: uint32(c.uvarint(math.MaxUint32)), File: uint16(c.uvarint(math.MaxUint16))})
	}
	for n := c.uvarint(uint64(len(c.b) / 2)); n > 0; n-- {
		d.ECC = append(d.ECC, memctrl.ECCEvent{Page: c.uvarint(math.MaxUint64), Line: int(c.uvarint(config.LinesPerPage - 1))})
	}
	for n := c.uvarint(uint64(len(c.b) / 10)); n > 0; n-- {
		t := ReadTrace{TraceID: binary.BigEndian.Uint64(c.take(8)), Parent: c.uvarint(math.MaxUint64), Kind: Kind(c.take(1)[0])}
		if int(t.Kind) >= NumOps {
			c.fail("read trace of kind %d", t.Kind)
		}
		out.Traces = append(out.Traces, t)
	}
}

// zeros stands in for the fields a failed cursor can no longer read.
var zeros [32]byte

// cursor reads the fields of one record. The first failure sticks: every
// later read returns zeros.
type cursor struct {
	b   []byte
	err error
}

func (c *cursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s", ErrLog, fmt.Sprintf(format, args...))
	}
}

func (c *cursor) take(n int) []byte {
	if n > len(c.b) {
		c.fail("%d-byte field overruns the %d bytes left", n, len(c.b))
	}
	if c.err != nil {
		return zeros[:min(n, len(zeros))]
	}
	v := c.b[:n]
	c.b = c.b[n:]
	return v
}

// uvarint reads a minimally encoded uvarint no larger than max.
func (c *cursor) uvarint(max uint64) uint64 {
	v, n := binary.Uvarint(c.b)
	if n <= 0 || n > 1 && c.b[n-1] == 0 || v > max {
		c.fail("truncated, overlong or over %d varint", max)
	}
	if c.err != nil {
		return 0
	}
	c.b = c.b[n:]
	return v
}

// str reads a length-prefixed string.
func (c *cursor) str() string { return string(c.take(int(c.uvarint(MaxBodyBytes)))) }
