package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

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
	// logSess is the session's index in the admission log logGen names (0:
	// none yet). A session outlives the shards of an index it visits, and
	// each brings a log of its own.
	logSess uint32
	logGen  uint64
}

type kvHandle struct {
	pool *pmem.Pool
	tree *kvstore.BTree
	// checked[a]: the session passed the store's permission check for
	// access a (it opened the store for a, or created it). A handle opened
	// by a get has not been checked for writing, nor one opened by a put
	// for reading, and owes that check before its first such op.
	checked [2]bool
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

// resolve maps an op's optional tenant override to its destination. via is
// the shard whose admission log is being replayed — by construction the
// op's target, so the routing table is not consulted — and nil on the live
// path, which reports the routing error when the shard lives on another
// node.
func (svc *Service) resolve(via *Shard, sess *Session, tenantOverride string) (target, error) {
	t := target{tenant: sess.tenant, gid: sess.gid, sh: via}
	if tenantOverride != "" && tenantOverride != sess.tenant {
		t.tenant = tenantOverride
		t.gid = fsproto.TenantGID(tenantOverride)
		t.cross = true
	}
	if t.sh == nil {
		// A tenant group lives on the shard its GID hashes to.
		sh, err := svc.shardAt(fsproto.ShardIndex(t.gid, svc.nShards))
		if err != nil {
			return target{}, err
		}
		t.sh = sh
	}
	return t, nil
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
func (svc *Service) noteDenial(sess *Session, tgt target, err error) {
	if !tgt.cross || !deniedKind(err) {
		return
	}
	tgt.sh.Jrn.Emit(journal.Event{
		Cycle:  uint64(tgt.sh.proc(sess).Now()),
		Type:   journal.CrossTenantDenied,
		Group:  tgt.gid,
		Detail: fmt.Sprintf("from %s", sess.tenant),
	})
	svc.cXDenied.Inc()
}

// logBody is what a logged shard records of a request: the body it came in,
// or for an in-process call the one a client would send (a frame around a
// write's or KV put's payload), held to the wire's size limit so that every
// op the shard executes has a record a replayer accepts.
func logBody(req any, wire *fsproto.Request) ([]byte, bool, error) {
	if wire != nil {
		return wire.Body, wire.ContentType == fsproto.ContentTypeFrame, nil
	}
	var payload []byte
	switch r := req.(type) {
	case *fsproto.WriteRequest:
		meta := *r
		meta.Data, payload, req = nil, r.Data, &meta
	case *fsproto.KVPutRequest:
		meta := *r
		meta.Value, payload, req = nil, r.Value, &meta
	}
	body, err := json.Marshal(req)
	if payload != nil {
		body = fsproto.AppendFrame(make([]byte, 0, fsproto.FrameHeaderLen+len(body)+len(payload)), body, payload)
	}
	if err == nil && len(body) > maxBodyBytes {
		err = fmt.Errorf("%w: %d-byte request exceeds the %d-byte body limit", ErrBadRequest, len(body), maxBodyBytes)
	}
	return body, payload != nil, err
}

// op is one logged operation, defined once: its table row below is all
// the HTTP mux, the live executor and the admission-log replayer know of
// it. plan and work run identically live and on replay, so a replayed shard
// validates what the source validated and touches its simulated machine in
// exactly the live sequence.
type op struct {
	kind   fsproto.Kind // admission-log record kind; its name is the root-span name
	route  string       // /v1 route
	newReq func() any   // a zero *Request of the op's fsproto request type
	plan   func(req any) (plan, error)
	// work is the worker-side body; dst is the reply buffer plan sized.
	work func(svc *Service, tgt target, sess *Session, req any, dst []byte) (any, error)
}

// plan is the stateless half of an op: what validating its request yields
// before any shard is touched.
type plan struct {
	tenant string // namespace override ("" or the session's own: none)
	seq    fsproto.Seq
	reply  int // bytes of reply buffer the body fills, or noReply
}

const noReply = -1

// ops is the op table, by kind.
var ops [fsproto.NumOps]*op

// defOp adds a row to the op table, erasing the request type R behind the
// untyped signatures the three table walkers share.
func defOp[R any](kind fsproto.Kind, route string, planR func(*R) (plan, error), workR func(*Service, target, *Session, *R, []byte) (any, error)) *op {
	o := &op{
		kind:   kind,
		route:  route,
		newReq: func() any { return new(R) },
		plan:   func(req any) (plan, error) { return planR(req.(*R)) },
		work: func(svc *Service, tgt target, sess *Session, req any, dst []byte) (any, error) {
			return workR(svc, tgt, sess, req.(*R), dst)
		},
	}
	ops[kind] = o
	return o
}

var (
	opLogin    = defOp(fsproto.KindLogin, "/v1/login", planLogin, workLogin)
	opCreate   = defOp(fsproto.KindCreate, "/v1/create", planCreate, workCreate)
	opRead     = defOp(fsproto.KindRead, "/v1/read", planRead, workRead)
	opWrite    = defOp(fsproto.KindWrite, "/v1/write", planWrite, workWrite)
	opChmod    = defOp(fsproto.KindChmod, "/v1/chmod", planChmod, workChmod)
	opDelete   = defOp(fsproto.KindDelete, "/v1/delete", planDelete, workDelete)
	opKVCreate = defOp(fsproto.KindKVCreate, "/v1/kv/create", planKVCreate, workKVCreate)
	opKVPut    = defOp(fsproto.KindKVPut, "/v1/kv/put", planKVPut, workKVPut)
	opKVGet    = defOp(fsproto.KindKVGet, "/v1/kv/get", planKVGet, workKVGet)
	opKVDelete = defOp(fsproto.KindKVDelete, "/v1/kv/delete", planKVDelete, workKVDelete)
)

// stage runs the stateless half of an op — validation, target resolution
// (via as for resolve), reply buffer — shared by exec and replay.
func (svc *Service) stage(o *op, via *Shard, sess *Session, req any) (p plan, tgt target, pl Payload, err error) {
	if p, err = o.plan(req); err != nil {
		return
	}
	if tgt, err = svc.resolve(via, sess, p.tenant); err != nil {
		return
	}
	if p.reply != noReply {
		pl = newPayload(p.reply)
	}
	return
}

// task builds the unit of work the shard serves for a staged op; exec
// submits it to the worker, replay hands it to serve directly. body/framed
// are the request as a logged shard records it.
func (o *op) task(svc *Service, tgt target, sess *Session, req any, seq uint64, tc fsproto.TraceContext, dst, body []byte, framed bool) task {
	return task{
		seq:    seq,
		tenant: tgt.gid,
		kind:   o.kind,
		framed: framed,
		trace:  tc,
		sess:   sess,
		body:   body,
		fn: func() (any, error) {
			v, err := o.work(svc, tgt, sess, req, dst)
			if err != nil {
				svc.noteDenial(sess, tgt, err)
			}
			return v, err
		},
	}
}

// exec is the live path of every logged op: stage it, try the snapshot
// fast path (reads only), and submit the task under the service's request
// timeout, with the trace context the HTTP layer put into ctx and — on
// logging shards only — the request body the worker logs after execution:
// wire's, or nil for an in-process call. The Payload is the filled reply
// buffer of ops that have one, the any the body's value.
func (svc *Service) exec(ctx context.Context, o *op, sess *Session, req any, wire *fsproto.Request) (Payload, any, error) {
	p, tgt, pl, err := svc.stage(o, nil, sess, req)
	if err != nil {
		return Payload{}, nil, err
	}
	tc := TraceFromContext(ctx)
	if o == opRead && svc.fastReadable(tgt.sh) {
		r := req.(*fsproto.ReadRequest)
		if tgt.sh.tryFastRead(sess, tc, fullName(tgt.tenant, r.Name), pass(sess, r.Passphrase), r.Offset, pl.Data) {
			svc.cFastReads.Inc()
			return pl, nil, nil
		}
		// Anything the snapshot path couldn't serve — contention, an
		// unfaulted page, a key not yet in the on-chip OTT, or a read that
		// genuinely fails — re-runs below with exact live semantics.
		svc.cFastFallbacks.Inc()
	}
	var seq uint64
	if p.seq != nil {
		seq = *p.seq
	}
	var body []byte
	var framed bool
	if tgt.sh.logOn {
		if body, framed, err = logBody(req, wire); err != nil {
			pl.Release()
			return Payload{}, nil, err
		}
	}
	t := o.task(svc, tgt, sess, req, seq, tc, pl.Data, body, framed)
	v, err := tgt.sh.submit(ctx, time.Now().Add(svc.opts.RequestTimeout), t)
	if err != nil {
		// pl is not released: on a caller timeout the task may still be
		// queued, and the buffer must not re-enter the pool while a worker
		// could yet write into it. The GC reclaims it instead.
		return Payload{}, nil, err
	}
	if n, short := v.(int); short {
		// The body filled less than the buffer it was given (kv_get).
		pl.Data = pl.Data[:n]
	}
	return pl, v, nil
}

func nameRequired(name, tenant string, seq fsproto.Seq) (plan, error) {
	if name == "" {
		return plan{}, fmt.Errorf("%w: name required", ErrBadRequest)
	}
	return plan{tenant: tenant, seq: seq, reply: noReply}, nil
}

func storeRequired(store, tenant string, seq fsproto.Seq, reply int) (plan, error) {
	if store == "" {
		return plan{}, fmt.Errorf("%w: store required", ErrBadRequest)
	}
	return plan{tenant: tenant, seq: seq, reply: reply}, nil
}

func planLogin(r *fsproto.LoginRequest) (plan, error) {
	if r.Tenant == "" || r.Passphrase == "" {
		return plan{}, fmt.Errorf("%w: tenant and passphrase required", ErrAuth)
	}
	return plan{seq: r.Seq, reply: noReply}, nil
}

// workLogin checks the credential against the keyring on the tenant's
// shard: first login registers the passphrase-derived master key, later
// logins must match it.
func workLogin(svc *Service, tgt target, _ *Session, req *fsproto.LoginRequest, _ []byte) (any, error) {
	sh := tgt.sh
	euid := fsproto.UserUID(req.Tenant, req.UID)
	registered, ok := sh.Sys.Keyring.Verify(euid, req.Passphrase)
	if registered && !ok {
		sh.Jrn.Emit(journal.Event{
			Cycle:  uint64(sh.Sys.M.MaxCoreTime()),
			Type:   journal.AuthFailure,
			Group:  tgt.gid,
			Detail: fmt.Sprintf("tenant %s uid %d", req.Tenant, req.UID),
		})
		svc.cAuthFail.Inc()
		return nil, fmt.Errorf("%w: tenant %s uid %d", ErrAuth, req.Tenant, req.UID)
	}
	if !registered {
		sh.Sys.Keyring.Login(euid, req.Passphrase)
	}
	return nil, nil
}

// Creates take no tenant override: a file is born in its creator's
// namespace.
func planCreate(r *fsproto.CreateRequest) (plan, error) { return nameRequired(r.Name, "", r.Seq) }

func workCreate(_ *Service, tgt target, sess *Session, req *fsproto.CreateRequest, _ []byte) (any, error) {
	p := tgt.sh.proc(sess)
	_, err := tgt.sh.Sys.CreateFile(p, fullName(sess.tenant, req.Name),
		fs.Mode(req.Perm), req.Size, req.Encrypted, pass(sess, req.Passphrase))
	return nil, err
}

func planRead(r *fsproto.ReadRequest) (plan, error) {
	if r.Name == "" || r.Length < 0 {
		return plan{}, fmt.Errorf("%w: name and non-negative length required", ErrBadRequest)
	}
	// Bound before allocating: a forged multi-gigabyte length — on the wire
	// or in a shipped log — must fail here, not in newPayload's make.
	if r.Length > maxReadBytes {
		return plan{}, fmt.Errorf("%w: length %d exceeds limit %d", ErrBadRequest, r.Length, maxReadBytes)
	}
	return plan{tenant: r.Tenant, seq: r.Seq, reply: r.Length}, nil
}

func workRead(_ *Service, tgt target, sess *Session, req *fsproto.ReadRequest, dst []byte) (any, error) {
	return nil, tgt.sh.readInto(sess, fullName(tgt.tenant, req.Name), pass(sess, req.Passphrase), req.Offset, dst)
}

func planWrite(r *fsproto.WriteRequest) (plan, error) { return nameRequired(r.Name, r.Tenant, r.Seq) }

func workWrite(_ *Service, tgt target, sess *Session, req *fsproto.WriteRequest, _ []byte) (any, error) {
	p := tgt.sh.proc(sess)
	f, err := tgt.sh.Sys.OpenFile(p, fullName(tgt.tenant, req.Name), fs.WriteAccess, pass(sess, req.Passphrase))
	if err != nil {
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

func planChmod(r *fsproto.ChmodRequest) (plan, error) { return nameRequired(r.Name, r.Tenant, r.Seq) }

func workChmod(_ *Service, tgt target, sess *Session, req *fsproto.ChmodRequest, _ []byte) (any, error) {
	return nil, tgt.sh.Sys.Chmod(tgt.sh.proc(sess), fullName(tgt.tenant, req.Name), fs.Mode(req.Perm))
}

func planDelete(r *fsproto.DeleteRequest) (plan, error) { return nameRequired(r.Name, r.Tenant, r.Seq) }

func workDelete(_ *Service, tgt target, sess *Session, req *fsproto.DeleteRequest, _ []byte) (any, error) {
	return nil, tgt.sh.Sys.Unlink(tgt.sh.proc(sess), fullName(tgt.tenant, req.Name))
}

// Like files, stores are created in the session's own namespace.
func planKVCreate(r *fsproto.KVCreateRequest) (plan, error) {
	if r.Size == 0 {
		return plan{}, fmt.Errorf("%w: size required", ErrBadRequest)
	}
	return storeRequired(r.Store, "", r.Seq, noReply)
}

func workKVCreate(_ *Service, tgt target, sess *Session, req *fsproto.KVCreateRequest, _ []byte) (any, error) {
	sh := tgt.sh
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
	sh.state(sess).kv[full] = &kvHandle{pool: pool, tree: tree, checked: [2]bool{fs.ReadAccess: true, fs.WriteAccess: true}}
	return nil, nil
}

func planKVPut(r *fsproto.KVPutRequest) (plan, error) {
	if len(r.Value) > maxKVValue {
		return plan{}, fmt.Errorf("%w: value exceeds %d bytes", ErrBadRequest, maxKVValue)
	}
	return storeRequired(r.Store, r.Tenant, r.Seq, noReply)
}

func workKVPut(_ *Service, tgt target, sess *Session, req *fsproto.KVPutRequest, _ []byte) (any, error) {
	h, err := tgt.sh.kvHandleFor(sess, tgt.tenant, req.Store, pass(sess, req.Passphrase), fs.WriteAccess)
	if err != nil {
		return nil, err
	}
	return nil, h.tree.Put(req.Key, req.Value)
}

func planKVGet(r *fsproto.KVGetRequest) (plan, error) {
	return storeRequired(r.Store, r.Tenant, r.Seq, maxKVValue)
}

// workKVGet returns how much of dst the value filled.
func workKVGet(_ *Service, tgt target, sess *Session, req *fsproto.KVGetRequest, dst []byte) (any, error) {
	h, err := tgt.sh.kvHandleFor(sess, tgt.tenant, req.Store, pass(sess, req.Passphrase), fs.ReadAccess)
	if err != nil {
		return nil, err
	}
	return h.tree.Get(req.Key, dst)
}

func planKVDelete(r *fsproto.KVDeleteRequest) (plan, error) {
	return storeRequired(r.Store, r.Tenant, r.Seq, noReply)
}

// workKVDelete returns the wire response: whether the key existed.
func workKVDelete(_ *Service, tgt target, sess *Session, req *fsproto.KVDeleteRequest, _ []byte) (any, error) {
	h, err := tgt.sh.kvHandleFor(sess, tgt.tenant, req.Store, pass(sess, req.Passphrase), fs.WriteAccess)
	if err != nil {
		return nil, err
	}
	existed, err := h.tree.Delete(req.Key)
	return fsproto.KVDeleteResponse{Existed: existed}, err
}

// Create creates a file in the session tenant's own namespace.
func (svc *Service) Create(ctx context.Context, sess *Session, req fsproto.CreateRequest) error {
	_, _, err := svc.exec(ctx, opCreate, sess, &req, nil)
	return err
}

// Read reads a byte range; the kernel enforces permissions and verifies
// the per-file key, so a cross-tenant or wrong-passphrase attempt fails
// without a single plaintext byte leaving the shard. The bytes land in a
// pooled buffer — Release the returned Payload after encoding it.
func (svc *Service) Read(ctx context.Context, sess *Session, req fsproto.ReadRequest) (Payload, error) {
	pl, _, err := svc.exec(ctx, opRead, sess, &req, nil)
	return pl, err
}

// Write stores bytes at an offset and persists them (CLWB+SFENCE under
// DAX).
func (svc *Service) Write(ctx context.Context, sess *Session, req fsproto.WriteRequest) error {
	_, _, err := svc.exec(ctx, opWrite, sess, &req, nil)
	return err
}

// Chmod changes permission bits (owner or root only).
func (svc *Service) Chmod(ctx context.Context, sess *Session, req fsproto.ChmodRequest) error {
	_, _, err := svc.exec(ctx, opChmod, sess, &req, nil)
	return err
}

// Delete unlinks a file: the controller drops its key and shreds its
// pages, so the bytes are gone even for holders of the old passphrase.
func (svc *Service) Delete(ctx context.Context, sess *Session, req fsproto.DeleteRequest) error {
	_, _, err := svc.exec(ctx, opDelete, sess, &req, nil)
	return err
}

// KVCreate creates an encrypted pool file holding a persistent B+Tree.
func (svc *Service) KVCreate(ctx context.Context, sess *Session, req fsproto.KVCreateRequest) error {
	_, _, err := svc.exec(ctx, opKVCreate, sess, &req, nil)
	return err
}

// KVPut stores a value.
func (svc *Service) KVPut(ctx context.Context, sess *Session, req fsproto.KVPutRequest) error {
	_, _, err := svc.exec(ctx, opKVPut, sess, &req, nil)
	return err
}

// KVGet fetches a value into a pooled buffer — Release the returned
// Payload after encoding it.
func (svc *Service) KVGet(ctx context.Context, sess *Session, req fsproto.KVGetRequest) (Payload, error) {
	pl, _, err := svc.exec(ctx, opKVGet, sess, &req, nil)
	return pl, err
}

// KVDelete removes a key.
func (svc *Service) KVDelete(ctx context.Context, sess *Session, req fsproto.KVDeleteRequest) (bool, error) {
	_, v, err := svc.exec(ctx, opKVDelete, sess, &req, nil)
	if err != nil {
		return false, err
	}
	return v.(fsproto.KVDeleteResponse).Existed, nil
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

// workStat is the one stat: lookup plus the Unix permission check. It
// deliberately touches no simulated state — no clock, no journal, no
// keyring — so stat stays replay-neutral on logged shards and
// schedule-neutral on deterministic ones, and it answers the same, errors
// included, under the read lock off the worker as on it.
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

// Stat returns file metadata. Read-only end to end, and deliberately not in
// the op table: the fast path runs workStat under the seqlock off the
// worker; the fallback runs it as out-of-band worker work (DoSide), so stat
// never consumes a deterministic schedule slot, advances no simulated
// clock, and is never logged.
func (svc *Service) Stat(ctx context.Context, sess *Session, req fsproto.StatRequest) (fsproto.StatResponse, error) {
	if req.Name == "" {
		return fsproto.StatResponse{}, fmt.Errorf("%w: name required", ErrBadRequest)
	}
	tgt, err := svc.resolve(nil, sess, req.Tenant)
	if err != nil {
		return fsproto.StatResponse{}, err
	}
	name := fullName(tgt.tenant, req.Name)
	var resp fsproto.StatResponse
	var serr error
	stat := func() { resp, serr = workStat(tgt.sh, sess, name) }
	if svc.fastReadable(tgt.sh) {
		if tgt.sh.tryFastStat(stat) {
			svc.cFastReads.Inc()
			return resp, serr
		}
		svc.cFastFallbacks.Inc()
	}
	ctx, cancel := context.WithTimeout(ctx, svc.opts.RequestTimeout)
	defer cancel()
	if err := tgt.sh.DoSide(ctx, stat); err != nil {
		return fsproto.StatResponse{}, err
	}
	return resp, serr
}

// kvName namespaces a store under its tenant.
func kvName(tenant, store string) string { return tenant + "/kv/" + store }

// kvHandleFor opens (or returns the cached) per-session view of a store:
// permission check through OpenFile, then a pmem pool mapping in the
// session's own process. A cached handle repeats the check, once, for the
// first op of an access kind it was not opened for. Worker-goroutine only,
// so replay opens exactly when the live run did.
func (sh *Shard) kvHandleFor(sess *Session, tenant, store, passphrase string, want fs.Access) (*kvHandle, error) {
	st := sh.state(sess)
	full := kvName(tenant, store)
	h, cached := st.kv[full]
	if cached && h.checked[want] {
		return h, nil
	}
	p := sh.proc(sess)
	f, err := sh.Sys.OpenFile(p, full, want, passphrase)
	if err != nil {
		return nil, err
	}
	if !cached {
		pool, err := pmem.Open(p, f, f.Size)
		if err != nil {
			return nil, err
		}
		tree := kvstore.Open(pool, 0)
		tree.Instrument(sh.Reg)
		h = &kvHandle{pool: pool, tree: tree}
		st.kv[full] = h
	}
	h.checked[want] = true
	return h, nil
}
