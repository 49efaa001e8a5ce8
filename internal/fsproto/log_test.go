package fsproto

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"testing"
)

// seedLogs returns logs shaped like a live shard's, requests as the client
// sends them: every kind; a session introduced by its login, then used again,
// and one introduced by a cross-tenant op; traced and untraced records;
// framed payloads of 0, 1 and 4096 bytes — and, on its own, a write near the
// body limit, bigger than a server log chunk.
func seedLogs() (log, big []byte) {
	var w LogWriter
	add := func(dst []byte, rec LogRecord) []byte { return w.Append(dst, &rec) }
	body := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err)
		}
		return b
	}
	frame := func(v any, payload []byte) []byte { return AppendFrame(nil, body(v), payload) }
	acme := LogRecord{GID: TenantGID("acme"), Session: 0, Token: "n1-1", Tenant: "acme", EUID: UserUID("acme", 1), Pass: "pw-acme"}
	op := func(kind Kind, traceID uint64, sampled bool, req []byte, framed bool) LogRecord {
		rec := acme
		rec.Kind, rec.TraceID, rec.Parent, rec.Sampled, rec.Req, rec.Framed = kind, traceID, traceID>>60, sampled, req, framed
		return rec
	}
	log = add(log, op(KindLogin, 0x1a2b3c4d5e6f7081, true, body(LoginRequest{Tenant: "acme", UID: 1, Passphrase: "pw-acme"}), false))
	log = add(log, op(KindCreate, 0, false, body(CreateRequest{Name: "obj0", Perm: 0600, Size: 1 << 20, Encrypted: true}), false))
	log = add(log, op(KindWrite, 0xf1a2b3c4d5e6f708, false, frame(WriteRequest{Name: "obj0", Offset: 4096}, bytes.Repeat([]byte{7}, 4096)), true))
	log = add(log, op(KindWrite, 0, false, frame(WriteRequest{Name: "obj0"}, nil), true))
	log = add(log, op(KindRead, 0x22, true, body(ReadRequest{Name: "obj0", Offset: 1044224, Length: 256}), false))
	log = add(log, op(KindChmod, 0, false, body(ChmodRequest{Name: "obj0", Perm: 0640}), false))
	log = add(log, op(KindKVCreate, 0, false, body(KVCreateRequest{Store: "kv", Size: 1 << 16}), false))
	log = add(log, op(KindKVPut, 0x33, false, frame(KVPutRequest{Store: "kv", Key: 9}, []byte{1}), true))
	log = add(log, LogRecord{Kind: RecCheckpoint, Root: [32]byte{1, 2, 3, 31: 0xff}})
	log = add(log, op(KindKVGet, 0, false, body(KVGetRequest{Store: "kv", Key: 9}), false))
	log = add(log, op(KindKVDelete, 0, false, body(KVDeleteRequest{Store: "kv", Key: 9}), false))
	cross := op(KindRead, 0x44, false, body(ReadRequest{Name: "obj0", Tenant: "acme", Length: 64, Passphrase: "pw-acme"}), false)
	cross.Session, cross.Token, cross.Tenant, cross.EUID, cross.Pass = 1, "n2-7", "globex", UserUID("globex", 1), "pw-globex"
	seq := uint64(41)
	cross.Seq, cross.GID = seq, TenantGID("globex")
	log = add(log, cross)
	log = add(log, op(KindDelete, 0, false, body(DeleteRequest{Name: "obj0"}), false))
	log = add(log, LogRecord{Kind: RecFlush})
	w = LogWriter{} // a log of its own: the write introduces the session
	big = add(nil, op(KindWrite, 0, false, frame(WriteRequest{Name: "obj0"}, bytes.Repeat([]byte{9}, MaxBodyBytes-64)), true))
	return log, big
}

// decodeAll decodes b from position 0 with a fresh reader.
func decodeAll(b []byte) ([]LogRecord, error) {
	var rd LogReader
	var out []LogRecord
	for len(b) > 0 {
		var rec LogRecord
		var err error
		if b, err = rd.Next(b, &rec); err != nil {
			return out, err
		}
		out = append(out, rec)
	}
	return out, nil
}

func TestLogRoundTrip(t *testing.T) {
	log, big := seedLogs()
	for _, b := range [][]byte{log, big} {
		recs, err := decodeAll(b)
		if err != nil {
			t.Fatal(err)
		}
		var w LogWriter
		var again []byte
		for i := range recs {
			again = w.Append(again, &recs[i])
		}
		if !bytes.Equal(again, b) {
			t.Fatal("decoded records re-encode to different bytes")
		}
	}
	recs, _ := decodeAll(log)
	if len(recs) != 14 || recs[1].Token != "n1-1" || recs[1].Pass != "pw-acme" || recs[11].Tenant != "globex" || recs[11].Seq != 41 {
		t.Fatalf("credentials or fields lost in the %d records decoded", len(recs))
	}
	if _, payload, err := SplitFrame(recs[2].Req); err != nil || len(payload) != 4096 || !recs[2].Framed {
		t.Fatalf("framed write payload: %d bytes, %v", len(payload), err)
	}
}

// TestLogReaderRefuses: each way a log can be malformed is refused with
// ErrLog, and the refusal leaves the reader where it was.
func TestLogReaderRefuses(t *testing.T) {
	log, _ := seedLogs()
	var w LogWriter
	login := w.Append(nil, &LogRecord{Kind: KindLogin, Token: "t1", Tenant: "a", Pass: "p", Req: []byte(`{}`)})
	rec := func(body ...byte) []byte { return append([]byte{byte(len(body))}, body...) }
	for name, b := range map[string][]byte{
		"empty record":            rec(),
		"length overruns":         {5, byte(KindRead), 0},
		"length past any body":    {0xff, 0xff, 0xff, 0xff, 0x0f},
		"non-minimal length":      {0x82, 0x00, byte(RecFlush), 0},
		"unknown kind":            rec(byte(RecCheckpoint)+1, 0),
		"unknown flag":            rec(byte(KindRead), 0x10, 0, 1, 0),
		"flags on a flush":        rec(byte(RecFlush), flagSampled),
		"stray byte after flush":  rec(byte(RecFlush), 0, 0),
		"short checkpoint root":   rec(byte(RecCheckpoint), 0, 1, 2, 3),
		"undefined session":       rec(byte(KindRead), 0, 0, 1, 1),
		"session introduced as 3": rec(byte(KindLogin), flagNewSession, 0, 1, 3, 0, 0, 1, 0),
		"token introduced again":  rec(byte(KindRead), flagNewSession, 0, 1, 1, 2, 't', '1', 0, 0, 0),
		"string overruns":         rec(byte(KindLogin), flagNewSession, 0, 1, 1, 9, 'a'),
		"gid over 32 bits":        rec(byte(KindRead), 0, 0, 0x80, 0x80, 0x80, 0x80, 0x10, 0),
		"empty trace context":     rec(byte(KindLogin), flagNewSession|flagTraced, 0, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
		"truncated trace id":      rec(byte(KindLogin), flagNewSession|flagTraced, 0, 1, 1, 0, 0, 1, 0, 9),
		"request over the limit":  append([]byte{0x89, 0x80, 0x40, byte(KindRead), 0, 0, 1, 0}, make([]byte, MaxBodyBytes+4)...),
	} {
		var rd LogReader
		rest, err := rd.Next(login, new(LogRecord))
		if err != nil || len(rest) != 0 {
			t.Fatalf("%s: the valid first record: %v", name, err)
		}
		var got LogRecord
		if _, err := rd.Next(b, &got); !errors.Is(err, ErrLog) {
			t.Errorf("%s: err = %v, want ErrLog", name, err)
		}
		if rd.Records() != 1 || len(rd.sessions) != 1 || !reflect.DeepEqual(got, LogRecord{}) {
			t.Errorf("%s: a refused record moved the reader or filled the record", name)
		}
	}
	// Every cut inside a record is refused; cuts on a record boundary are logs.
	boundaries := map[int]bool{0: true}
	for rest := log; len(rest) > 0; {
		rest = skipRecord(rest)
		boundaries[len(log)-len(rest)] = true
	}
	for cut := range len(log) {
		if _, err := decodeAll(log[:cut]); (err == nil) != boundaries[cut] {
			t.Fatalf("cut at %d of %d: err %v", cut, len(log), err)
		}
	}
}

// TestLogWriterSessions: a token's index is the one it was introduced under,
// whoever asks; an unknown token's is the next; introducing a known token
// again is refused (Append panics) instead of numbering it twice.
func TestLogWriterSessions(t *testing.T) {
	var w LogWriter
	log := w.Append(nil, &LogRecord{Kind: KindLogin, Session: w.Session("t1"), Token: "t1"})
	log = w.Append(log, &LogRecord{Kind: KindRead, Session: w.Session("t2"), Token: "t2"})
	if w.Session("t1") != 0 || w.Session("t2") != 1 || w.Session("t3") != 2 || w.Sessions() != 2 {
		t.Fatalf("indices t1 %d, t2 %d, t3 %d of %d", w.Session("t1"), w.Session("t2"), w.Session("t3"), w.Sessions())
	}
	log = w.Append(log, &LogRecord{Kind: KindRead, Session: w.Session("t1")})
	if recs, err := decodeAll(log); err != nil || len(recs) != 3 || recs[2].Token != "t1" {
		t.Fatalf("decoded %+v, %v", recs, err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("introducing t1 a second time was encoded")
		}
	}()
	w.Append(log, &LogRecord{Kind: KindRead, Session: w.Sessions(), Token: "t1"})
}

// skipRecord returns b after its first record, read by the length prefix
// alone.
func skipRecord(b []byte) []byte {
	c := cursor{b: b}
	c.take(int(c.uvarint(uint64(len(b)))))
	return c.b
}

// FuzzLogRecords: on arbitrary bytes the reader never panics, refuses with
// ErrLog, allocates no more than a small multiple of its input (a forged
// length allocates nothing), and every record it accepts re-encodes — within
// SizeBound — to exactly the bytes it came from.
func FuzzLogRecords(f *testing.F) {
	log, big := seedLogs()
	f.Add(log)
	f.Add(big)
	f.Add(log[:len(log)/2])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, b []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var rd LogReader
		var rec LogRecord
		var err error
		for rest := b; len(rest) > 0 && err == nil; {
			rest, err = rd.Next(rest, &rec)
		}
		runtime.ReadMemStats(&after)
		if err != nil && !errors.Is(err, ErrLog) {
			t.Fatalf("err = %v, want ErrLog", err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16*uint64(len(b))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d", len(b), grew)
		}
		var w LogWriter
		rd = LogReader{}
		for rest := b; len(rest) > 0; {
			next, err := rd.Next(rest, &rec)
			if err != nil {
				break
			}
			if again := w.Append(nil, &rec); len(again) > rec.SizeBound() || !bytes.Equal(again, rest[:len(rest)-len(next)]) {
				t.Fatalf("record %d: accepted %x, re-encodes (bound %d) as %x", rd.Records()-1, rest[:len(rest)-len(next)], rec.SizeBound(), again)
			}
			rest = next
		}
	})
}
