package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"fsencr/internal/addr"
	"fsencr/internal/fs"
	"fsencr/internal/fsproto"
	"fsencr/internal/kernel"
	"fsencr/internal/kvstore"
	"fsencr/internal/obsplane/journal"
	"fsencr/internal/pmem"
)

// ErrBadRequest reports a malformed operation (range beyond EOF, oversize
// value, missing name).
var ErrBadRequest = errors.New("server: bad request")

// maxKVValue bounds KV values to one page (the paper's "large" value size).
const maxKVValue = 4096

// maxReadBytes bounds one read's response payload, mirroring the request
// body bound: a JSON response larger than this would not round-trip the
// protocol anyway, and the bound keeps a forged length from allocating.
const maxReadBytes = maxBodyBytes

// pagePool recycles page-sized payload buffers. The read and KV-get
// response buffers were the service's last per-request heap allocations;
// pooling them makes the steady-state read path allocation-free on the
// worker side.
var pagePool = sync.Pool{New: func() any { return new([maxKVValue]byte) }}

// Payload is a response byte range, backed by a pooled page buffer when
// it fits in one page. The consumer must call Release exactly once after
// encoding Data; Release on the zero Payload is a no-op.
type Payload struct {
	Data []byte
	arr  *[maxKVValue]byte
}

// newPayload returns an n-byte payload, pooled when page-or-smaller.
func newPayload(n int) Payload {
	if n <= maxKVValue {
		arr := pagePool.Get().(*[maxKVValue]byte)
		return Payload{Data: arr[:n], arr: arr}
	}
	return Payload{Data: make([]byte, n)}
}

// Release returns the backing buffer to the pool.
func (p Payload) Release() {
	if p.arr != nil {
		pagePool.Put(p.arr)
	}
}

// sessState is a session's per-shard state: its simulated process, its
// file mappings, and its open KV handles. Created and touched exclusively
// by the owning shard's worker goroutine.
type sessState struct {
	proc *kernel.Process
	maps map[uint16]addr.Virt // ino -> base va (inos are never reused)
	kv   map[string]*kvHandle // full store name -> handle
}

type kvHandle struct {
	pool *pmem.Pool
	tree *kvstore.BTree
}

// state returns (creating lazily) the session's state on this shard.
// Worker-goroutine only.
func (sh *Shard) state(sess *Session) *sessState {
	st := sess.st[sh.id]
	if st == nil {
		st = &sessState{maps: make(map[uint16]addr.Virt), kv: make(map[string]*kvHandle)}
		sess.st[sh.id] = st
	}
	return st
}

// proc returns (creating lazily) the session's process on this shard.
func (sh *Shard) proc(sess *Session) *kernel.Process {
	st := sh.state(sess)
	if st.proc == nil {
		st.proc = sh.Sys.NewProcess(sess.uid, sess.gid)
	}
	return st.proc
}

// mapping returns the session's mapping of f, mmapping the whole file on
// first use. Inode numbers are never reused by the fs, so a cached va can
// only go stale by deletion — in which case the preceding Lookup fails
// first.
func (sh *Shard) mapping(sess *Session, f *fs.File) (addr.Virt, error) {
	st := sh.state(sess)
	if va, ok := st.maps[f.Ino]; ok {
		return va, nil
	}
	va, err := sh.proc(sess).Mmap(f, f.Size)
	if err != nil {
		return 0, err
	}
	st.maps[f.Ino] = va
	return va, nil
}

// target is a resolved operation destination: possibly another tenant's
// namespace on another shard.
type target struct {
	tenant string
	gid    uint32
	sh     *Shard
	cross  bool
}

// resolve maps a request's optional tenant override to its shard,
// reporting the routing error when that shard lives on another node.
func (svc *Service) resolve(sess *Session, tenantOverride string) (target, error) {
	t := target{tenant: sess.tenant, gid: sess.gid}
	if tenantOverride != "" && tenantOverride != sess.tenant {
		t.tenant = tenantOverride
		t.gid = fsproto.TenantGID(tenantOverride)
		t.cross = true
	}
	sh, err := svc.shardFor(t.gid)
	if err != nil {
		return target{}, err
	}
	t.sh = sh
	return t, nil
}

// replayTarget rebuilds an op's resolved destination without consulting
// the routing table: in an admission-log replay the target shard is by
// construction the shard whose log is being replayed.
func replayTarget(sh *Shard, sess *Session, override string) target {
	t := target{tenant: sess.tenant, gid: sess.gid, sh: sh}
	if override != "" && override != sess.tenant {
		t.tenant = override
		t.gid = fsproto.TenantGID(override)
		t.cross = true
	}
	return t
}

// fullName prefixes a file name with its tenant namespace.
func fullName(tenant, name string) string { return tenant + "/" + name }

// pass picks the file passphrase: explicit override or the session's.
func pass(sess *Session, override string) string {
	if override != "" {
		return override
	}
	return sess.pass
}

// deniedKind classifies kernel denials for the security journal.
func deniedKind(err error) bool {
	return errors.Is(err, kernel.ErrPermission) ||
		errors.Is(err, kernel.ErrWrongPassphrase) ||
		errors.Is(err, fs.ErrPermEperm)
}

// noteDenial records a cross-tenant denial in the target shard's journal
// (worker goroutine, so the event lands in deterministic admission order)
// and on the host-side counter.
func (svc *Service) noteDenial(sh *Shard, sess *Session, tgt target, err error) {
	if !tgt.cross || !deniedKind(err) {
		return
	}
	sh.Jrn.Emit(journal.Event{
		Cycle:  uint64(sh.proc(sess).Now()),
		Type:   journal.CrossTenantDenied,
		Group:  tgt.gid,
		Detail: fmt.Sprintf("from %s", sess.tenant),
	})
	svc.cXDenied.Inc()
}

// buildRecord assembles one admission-log record: the request's wire JSON
// plus the session credentials a replayer needs to reconstruct a shadow
// session that never logged in through this shard's log (cross-tenant
// traffic). Returns nil when req does not marshal — the op then simply
// goes unlogged rather than failing live traffic.
func buildRecord(kind string, gid uint32, seq uint64, sess *Session, tc fsproto.TraceContext, req any) *fsproto.LogRecord {
	raw, err := json.Marshal(req)
	if err != nil {
		return nil
	}
	rec := &fsproto.LogRecord{
		Kind:    kind,
		Seq:     seq,
		GID:     gid,
		TraceID: tc.TraceID,
		Parent:  tc.Parent,
		Sampled: tc.Sampled,
		Req:     raw,
	}
	if sess != nil {
		rec.Token = sess.token
		rec.Tenant = sess.tenant
		rec.EUID = sess.uid
		rec.Pass = sess.pass
	}
	return rec
}

// do wraps shard submission with the service's request timeout, naming the
// request's root span, forwarding the trace context the HTTP layer put
// into ctx, and — on logging shards — attaching the admission-log record
// the worker appends after execution. req is the wire request that record
// serializes; the zero-allocation read path is preserved on non-logging
// shards, where req is never marshaled.
func (svc *Service) do(ctx context.Context, sh *Shard, sess *Session, gid uint32, seq fsproto.Seq, name string, req any, fn func() (any, error)) (any, error) {
	tc := TraceFromContext(ctx)
	ctx, cancel := context.WithTimeout(ctx, svc.opts.RequestTimeout)
	defer cancel()
	var s uint64
	if seq != nil {
		s = *seq
	}
	var rec *fsproto.LogRecord
	if sh.logOn {
		rec = buildRecord(name, gid, s, sess, tc, req)
	}
	return sh.submit(ctx, gid, s, name, tc, rec, fn)
}

// The work* methods below are the worker-goroutine op bodies, shared
// verbatim between live admission and admission-log replay so a replayed
// shard touches its simulated machine in exactly the live sequence.

func (svc *Service) workCreate(sh *Shard, sess *Session, req fsproto.CreateRequest) (any, error) {
	p := sh.proc(sess)
	_, err := sh.Sys.CreateFile(p, fullName(sess.tenant, req.Name),
		fs.Mode(req.Perm), req.Size, req.Encrypted, pass(sess, req.Passphrase))
	return nil, err
}

func (svc *Service) workRead(tgt target, sess *Session, req fsproto.ReadRequest, dst []byte) (any, error) {
	if err := tgt.sh.readInto(sess, fullName(tgt.tenant, req.Name), pass(sess, req.Passphrase), req.Offset, dst); err != nil {
		svc.noteDenial(tgt.sh, sess, tgt, err)
		return nil, err
	}
	return nil, nil
}

func (svc *Service) workWrite(tgt target, sess *Session, req fsproto.WriteRequest) (any, error) {
	p := tgt.sh.proc(sess)
	f, err := tgt.sh.Sys.OpenFile(p, fullName(tgt.tenant, req.Name), fs.WriteAccess, pass(sess, req.Passphrase))
	if err != nil {
		svc.noteDenial(tgt.sh, sess, tgt, err)
		return nil, err
	}
	if req.Offset > f.Size || uint64(len(req.Data)) > f.Size-req.Offset {
		return nil, fmt.Errorf("%w: write of %d bytes at %d beyond EOF %d", ErrBadRequest, len(req.Data), req.Offset, f.Size)
	}
	va, err := tgt.sh.mapping(sess, f)
	if err != nil {
		return nil, err
	}
	if err := p.Write(va+addr.Virt(req.Offset), req.Data); err != nil {
		return nil, err
	}
	return nil, p.Persist(va+addr.Virt(req.Offset), uint64(len(req.Data)))
}

func (svc *Service) workChmod(tgt target, sess *Session, req fsproto.ChmodRequest) (any, error) {
	err := tgt.sh.Sys.Chmod(tgt.sh.proc(sess), fullName(tgt.tenant, req.Name), fs.Mode(req.Perm))
	if err != nil {
		svc.noteDenial(tgt.sh, sess, tgt, err)
	}
	return nil, err
}

func (svc *Service) workDelete(tgt target, sess *Session, req fsproto.DeleteRequest) (any, error) {
	err := tgt.sh.Sys.Unlink(tgt.sh.proc(sess), fullName(tgt.tenant, req.Name))
	if err != nil {
		svc.noteDenial(tgt.sh, sess, tgt, err)
	}
	return nil, err
}

func (svc *Service) workKVCreate(sh *Shard, sess *Session, req fsproto.KVCreateRequest) (any, error) {
	p := sh.proc(sess)
	full := kvName(sess.tenant, req.Store)
	// 0660: group-shared within the tenant; the per-file key (from the
	// store passphrase) still gates every other tenant out.
	f, err := sh.Sys.CreateFile(p, full, 0660, req.Size, true, pass(sess, req.Passphrase))
	if err != nil {
		return nil, err
	}
	pool, err := pmem.Create(p, f, req.Size)
	if err != nil {
		return nil, err
	}
	tree, err := kvstore.Create(pool, 0)
	if err != nil {
		return nil, err
	}
	tree.Instrument(sh.Reg)
	sh.state(sess).kv[full] = &kvHandle{pool: pool, tree: tree}
	return nil, nil
}

func (svc *Service) workKVPut(tgt target, sess *Session, req fsproto.KVPutRequest) (any, error) {
	h, err := tgt.sh.kvHandleFor(sess, tgt.tenant, req.Store, pass(sess, req.Passphrase), fs.WriteAccess)
	if err != nil {
		svc.noteDenial(tgt.sh, sess, tgt, err)
		return nil, err
	}
	return nil, h.tree.Put(req.Key, req.Value)
}

func (svc *Service) workKVGet(tgt target, sess *Session, req fsproto.KVGetRequest, dst []byte) (any, error) {
	h, err := tgt.sh.kvHandleFor(sess, tgt.tenant, req.Store, pass(sess, req.Passphrase), fs.ReadAccess)
	if err != nil {
		svc.noteDenial(tgt.sh, sess, tgt, err)
		return nil, err
	}
	return h.tree.Get(req.Key, dst)
}

func (svc *Service) workKVDelete(tgt target, sess *Session, req fsproto.KVDeleteRequest) (any, error) {
	h, err := tgt.sh.kvHandleFor(sess, tgt.tenant, req.Store, pass(sess, req.Passphrase), fs.WriteAccess)
	if err != nil {
		svc.noteDenial(tgt.sh, sess, tgt, err)
		return nil, err
	}
	return h.tree.Delete(req.Key)
}

// Create creates a file in the session tenant's own namespace.
func (svc *Service) Create(ctx context.Context, sess *Session, req fsproto.CreateRequest) error {
	if req.Name == "" {
		return fmt.Errorf("%w: name required", ErrBadRequest)
	}
	sh, err := svc.shardFor(sess.gid)
	if err != nil {
		return err
	}
	_, err = svc.do(ctx, sh, sess, sess.gid, req.Seq, "create", &req, func() (any, error) {
		return svc.workCreate(sh, sess, req)
	})
	return err
}

// readInto is the worker-side read datapath: open (permission + per-file
// key check), bounds-check, and copy [off, off+len(dst)) of the named
// file into dst. The caller provides the destination, so a steady-state
// read allocates nothing — and a page-aligned, page-sized read rides the
// controller's batched page datapath end to end. name must already carry
// its tenant prefix. Worker-goroutine only.
func (sh *Shard) readInto(sess *Session, name, passphrase string, off uint64, dst []byte) error {
	p := sh.proc(sess)
	f, err := sh.Sys.OpenFile(p, name, fs.ReadAccess, passphrase)
	if err != nil {
		return err
	}
	if off > f.Size || uint64(len(dst)) > f.Size-off {
		return fmt.Errorf("%w: read of %d bytes at %d beyond EOF %d", ErrBadRequest, len(dst), off, f.Size)
	}
	va, err := sh.mapping(sess, f)
	if err != nil {
		return err
	}
	return p.Read(va+addr.Virt(off), dst)
}

// Read reads a byte range; the kernel enforces permissions and verifies
// the per-file key, so a cross-tenant or wrong-passphrase attempt fails
// without a single plaintext byte leaving the shard. The bytes land in a
// pooled buffer — Release the returned Payload after encoding it.
func (svc *Service) Read(ctx context.Context, sess *Session, req fsproto.ReadRequest) (Payload, error) {
	if req.Name == "" || req.Length < 0 {
		return Payload{}, fmt.Errorf("%w: name and non-negative length required", ErrBadRequest)
	}
	// Bound before allocating: a forged multi-gigabyte length must fail
	// here, not in newPayload's make.
	if req.Length > maxReadBytes {
		return Payload{}, fmt.Errorf("%w: length %d exceeds limit %d", ErrBadRequest, req.Length, maxReadBytes)
	}
	tgt, err := svc.resolve(sess, req.Tenant)
	if err != nil {
		return Payload{}, err
	}
	pl := newPayload(req.Length)
	if svc.fastReadable(tgt.sh) {
		if tgt.sh.tryFastRead(sess, TraceFromContext(ctx), fullName(tgt.tenant, req.Name), pass(sess, req.Passphrase), req.Offset, pl.Data) {
			svc.cFastReads.Inc()
			return pl, nil
		}
		// Anything the snapshot path couldn't serve — contention, an
		// unfaulted page, a key not yet in the on-chip OTT, or a read that
		// genuinely fails — re-runs below with exact live semantics.
		svc.cFastFallbacks.Inc()
	}
	_, err = svc.do(ctx, tgt.sh, sess, tgt.gid, req.Seq, "read", &req, func() (any, error) {
		return svc.workRead(tgt, sess, req, pl.Data)
	})
	if err != nil {
		// Not released: on a caller timeout the task may still be queued,
		// and the buffer must not re-enter the pool while a worker could
		// yet write into it. The GC reclaims it instead.
		return Payload{}, err
	}
	return pl, nil
}

// fastReadable gates the concurrent read fast-path: deterministic shards
// must stay a pure function of their schedule (a fast read would skip the
// schedule entirely), logged shards must observe every op as an
// admission-log record, and -serial-reads forces the worker path for A/B
// measurement against the serialized datapath.
func (svc *Service) fastReadable(sh *Shard) bool {
	return !sh.det && !sh.logOn && !svc.opts.SerialReads
}

// statResponse is the wire form of a stat'ed inode.
func statResponse(f *fs.File) fsproto.StatResponse {
	return fsproto.StatResponse{
		Name:      f.Name,
		Size:      f.Size,
		Perm:      uint16(f.Perm),
		Encrypted: f.Encrypted,
		Pages:     f.Pages(),
	}
}

// workStat is the worker-side stat fallback. It deliberately touches no
// simulated state — no clock, no journal, no keyring — so stat stays
// replay-neutral on logged shards and schedule-neutral on deterministic
// ones; it exists to produce the exact live error shapes the snapshot path
// refuses to guess.
func workStat(sh *Shard, sess *Session, name string) (fsproto.StatResponse, error) {
	f, err := sh.Sys.FS.Lookup(name)
	if err != nil {
		return fsproto.StatResponse{}, err
	}
	if !f.Allows(sess.uid, sess.gid, fs.ReadAccess) {
		return fsproto.StatResponse{}, fmt.Errorf("%w: %q", kernel.ErrPermission, name)
	}
	return statResponse(f), nil
}

// Stat returns file metadata. Read-only end to end: the fast path answers
// from a seqlock-guarded snapshot off the worker; the fallback runs as
// out-of-band worker work (DoSide), so stat never consumes a deterministic
// schedule slot, advances no simulated clock, and is never logged.
func (svc *Service) Stat(ctx context.Context, sess *Session, req fsproto.StatRequest) (fsproto.StatResponse, error) {
	if req.Name == "" {
		return fsproto.StatResponse{}, fmt.Errorf("%w: name required", ErrBadRequest)
	}
	tgt, err := svc.resolve(sess, req.Tenant)
	if err != nil {
		return fsproto.StatResponse{}, err
	}
	name := fullName(tgt.tenant, req.Name)
	if svc.fastReadable(tgt.sh) {
		if resp, ok := tgt.sh.tryFastStat(sess, name); ok {
			svc.cFastReads.Inc()
			return resp, nil
		}
		svc.cFastFallbacks.Inc()
	}
	ctx, cancel := context.WithTimeout(ctx, svc.opts.RequestTimeout)
	defer cancel()
	var resp fsproto.StatResponse
	var serr error
	if err := tgt.sh.DoSide(ctx, func() { resp, serr = workStat(tgt.sh, sess, name) }); err != nil {
		return fsproto.StatResponse{}, err
	}
	return resp, serr
}

// Write stores bytes at an offset and persists them (CLWB+SFENCE under
// DAX).
func (svc *Service) Write(ctx context.Context, sess *Session, req fsproto.WriteRequest) error {
	if req.Name == "" {
		return fmt.Errorf("%w: name required", ErrBadRequest)
	}
	tgt, err := svc.resolve(sess, req.Tenant)
	if err != nil {
		return err
	}
	_, err = svc.do(ctx, tgt.sh, sess, tgt.gid, req.Seq, "write", &req, func() (any, error) {
		return svc.workWrite(tgt, sess, req)
	})
	return err
}

// Chmod changes permission bits (owner or root only).
func (svc *Service) Chmod(ctx context.Context, sess *Session, req fsproto.ChmodRequest) error {
	if req.Name == "" {
		return fmt.Errorf("%w: name required", ErrBadRequest)
	}
	tgt, err := svc.resolve(sess, req.Tenant)
	if err != nil {
		return err
	}
	_, err = svc.do(ctx, tgt.sh, sess, tgt.gid, req.Seq, "chmod", &req, func() (any, error) {
		return svc.workChmod(tgt, sess, req)
	})
	return err
}

// Delete unlinks a file: the controller drops its key and shreds its
// pages, so the bytes are gone even for holders of the old passphrase.
func (svc *Service) Delete(ctx context.Context, sess *Session, req fsproto.DeleteRequest) error {
	if req.Name == "" {
		return fmt.Errorf("%w: name required", ErrBadRequest)
	}
	tgt, err := svc.resolve(sess, req.Tenant)
	if err != nil {
		return err
	}
	_, err = svc.do(ctx, tgt.sh, sess, tgt.gid, req.Seq, "delete", &req, func() (any, error) {
		return svc.workDelete(tgt, sess, req)
	})
	return err
}

// kvName namespaces a store under its tenant.
func kvName(tenant, store string) string { return tenant + "/kv/" + store }

// kvHandleFor opens (or returns the cached) per-session view of a store:
// permission check through OpenFile, then a pmem pool mapping in the
// session's own process. Worker-goroutine only.
func (sh *Shard) kvHandleFor(sess *Session, tenant, store, passphrase string, want fs.Access) (*kvHandle, error) {
	st := sh.state(sess)
	full := kvName(tenant, store)
	if h, ok := st.kv[full]; ok {
		return h, nil
	}
	p := sh.proc(sess)
	f, err := sh.Sys.OpenFile(p, full, want, passphrase)
	if err != nil {
		return nil, err
	}
	pool, err := pmem.Open(p, f, f.Size)
	if err != nil {
		return nil, err
	}
	tree := kvstore.Open(pool, 0)
	tree.Instrument(sh.Reg)
	h := &kvHandle{pool: pool, tree: tree}
	st.kv[full] = h
	return h, nil
}

// KVCreate creates an encrypted pool file holding a persistent B+Tree.
func (svc *Service) KVCreate(ctx context.Context, sess *Session, req fsproto.KVCreateRequest) error {
	if req.Store == "" || req.Size == 0 {
		return fmt.Errorf("%w: store and size required", ErrBadRequest)
	}
	sh, err := svc.shardFor(sess.gid)
	if err != nil {
		return err
	}
	_, err = svc.do(ctx, sh, sess, sess.gid, req.Seq, "kv_create", &req, func() (any, error) {
		return svc.workKVCreate(sh, sess, req)
	})
	return err
}

// KVPut stores a value.
func (svc *Service) KVPut(ctx context.Context, sess *Session, req fsproto.KVPutRequest) error {
	if req.Store == "" || len(req.Value) > maxKVValue {
		return fmt.Errorf("%w: store required, value <= %d bytes", ErrBadRequest, maxKVValue)
	}
	tgt, err := svc.resolve(sess, req.Tenant)
	if err != nil {
		return err
	}
	_, err = svc.do(ctx, tgt.sh, sess, tgt.gid, req.Seq, "kv_put", &req, func() (any, error) {
		return svc.workKVPut(tgt, sess, req)
	})
	return err
}

// KVGet fetches a value into a pooled buffer — Release the returned
// Payload after encoding it.
func (svc *Service) KVGet(ctx context.Context, sess *Session, req fsproto.KVGetRequest) (Payload, error) {
	if req.Store == "" {
		return Payload{}, fmt.Errorf("%w: store required", ErrBadRequest)
	}
	tgt, err := svc.resolve(sess, req.Tenant)
	if err != nil {
		return Payload{}, err
	}
	pl := newPayload(maxKVValue)
	v, err := svc.do(ctx, tgt.sh, sess, tgt.gid, req.Seq, "kv_get", &req, func() (any, error) {
		return svc.workKVGet(tgt, sess, req, pl.Data)
	})
	if err != nil {
		// Same rationale as Read: a possibly-still-queued task owns the
		// buffer, so it is dropped rather than pooled.
		return Payload{}, err
	}
	pl.Data = pl.Data[:v.(int)]
	return pl, nil
}

// KVDelete removes a key.
func (svc *Service) KVDelete(ctx context.Context, sess *Session, req fsproto.KVDeleteRequest) (bool, error) {
	if req.Store == "" {
		return false, fmt.Errorf("%w: store required", ErrBadRequest)
	}
	tgt, err := svc.resolve(sess, req.Tenant)
	if err != nil {
		return false, err
	}
	v, err := svc.do(ctx, tgt.sh, sess, tgt.gid, req.Seq, "kv_delete", &req, func() (any, error) {
		return svc.workKVDelete(tgt, sess, req)
	})
	if err != nil {
		return false, err
	}
	return v.(bool), nil
}
