package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"fsencr/internal/cluster"
	"fsencr/internal/fsclient"
	"fsencr/internal/fsproto"
	"fsencr/internal/kernel"
	"fsencr/internal/memctrl"
	"fsencr/internal/server"
)

// fsencrMode is the paper's scheme: memory + file encryption over DAX.
var fsencrMode = memctrl.Mode{MemEncryption: true, FileEncryption: true}

// prefillChunk is the bytes one prefill write carries (16 pages): set-up
// is not what the window measures, so it moves data in large requests.
const prefillChunk = 64 << 10

// wireCounter counts request and response body bytes around a mux and
// accepted connections on a listener.
type wireCounter struct {
	reqBytes, respBytes, accepts atomic.Int64
}

type countingListener struct {
	net.Listener
	wc *wireCounter
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.wc.accepts.Add(1)
	}
	return c, err
}

type countingWriter struct {
	http.ResponseWriter
	wc *wireCounter
}

func (w countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.wc.respBytes.Add(int64(n))
	return n, err
}

func (wc *wireCounter) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.ContentLength > 0 {
			wc.reqBytes.Add(r.ContentLength)
		}
		h.ServeHTTP(countingWriter{w, wc}, r)
	})
}

// listener is one HTTP server on a loopback port.
type listener struct {
	hs   *http.Server
	base string
	done chan struct{}
}

// serveOn serves h on an already-bound listener.
func serveOn(ln net.Listener, h http.Handler, wc *wireCounter) *listener {
	l := &listener{hs: &http.Server{Handler: h}, base: baseOf(ln), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.hs.Serve(countingListener{ln, wc}) // returns ErrServerClosed at shutdown
	}()
	return l
}

func baseOf(ln net.Listener) string { return "http://" + ln.Addr().String() }

func (l *listener) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = l.hs.Shutdown(ctx) // the benchmark is over; a straggler connection is dropped with the process
	<-l.done
}

// stackOptions is the one way a stack differs from the product default.
type stackOptions struct {
	// counted boots the stack of a counted pass: the product's
	// -serial-reads mode, so every read goes through the shard worker and
	// advances the simulated clock, and a byte counter around the mux (the
	// timed window serves exactly what fsencrd serve mounts).
	counted bool
}

// stack is one booted serving stack with its logged-in clients.
type stack struct {
	spec *workloadSpec
	// entry is the service the clients' URL reaches; owner is the service
	// whose shards hold the data once set-up is done (node B on fabric_hop,
	// else entry). services lists all of them.
	entry, owner *server.Service
	services     []*server.Service
	// base is the URL clients dial; ownerBase reaches the owner without a
	// hop (equal to base except on fabric_hop).
	base, ownerBase string
	wire            *wireCounter
	listeners       []*listener
	nodes           []*cluster.Node
	ids             [2]identity
	clients         [2]*fsclient.Client
	states          [2]*clientState

	setupSeconds   float64
	migrateSeconds float64
	migrateRecords uint64
}

func nodeOptions(base string, empty bool) server.Options {
	h := fnv.New32a()
	h.Write([]byte(base))
	o := server.Options{
		Shards: nShards, ClusterShards: nShards,
		MCMode: fsencrMode, Access: kernel.ModeDAX,
		// What `fsencrd serve -join` sets:
		AdmissionLog: true,
		ChipSeqBase:  server.DefaultChipSeqBase,
		TokenPrefix:  fmt.Sprintf("n%08x-", h.Sum32()),
	}
	if empty {
		o.OwnedShards = []int{}
	}
	return o
}

// setup boots the stack for w and runs the timed set-up: boot, login,
// create, prefill, and on fabric_hop the write history and the migration.
func setup(w *workloadSpec, so stackOptions) (*stack, error) {
	start := time.Now()
	st := &stack{spec: w, ids: w.identities(), wire: &wireCounter{}}
	ok := false
	defer func() {
		if !ok {
			st.close()
		}
	}()
	wrap := func(h http.Handler) http.Handler {
		if so.counted {
			return st.wire.wrap(h)
		}
		return h
	}
	var coord *cluster.Coordinator
	if w.fabric {
		coord = cluster.NewCoordinator(nShards)
		for i, empty := range []bool{false, true} {
			// The listener must exist before the service: the token prefix
			// hashes the advertised base, as fsencrd does.
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			base := baseOf(ln)
			opts := nodeOptions(base, empty)
			opts.SerialReads = so.counted
			svc := server.New(opts)
			node := cluster.NewNode(svc)
			node.SetBase(base)
			// Only node A, which the clients dial, is counted.
			wc, h := &wireCounter{}, http.Handler(node.Mux())
			if i == 0 {
				wc, h = st.wire, wrap(h)
			}
			st.listeners = append(st.listeners, serveOn(ln, h, wc))
			st.nodes = append(st.nodes, node)
			st.services = append(st.services, svc)
			if _, err := coord.Join(base, empty); err != nil {
				return nil, fmt.Errorf("join %s: %w", base, err)
			}
		}
		st.entry, st.owner = st.services[0], st.services[1]
		st.base, st.ownerBase = st.listeners[0].base, st.listeners[1].base
	} else {
		svc := server.New(server.Options{
			Shards: nShards, MCMode: fsencrMode, Access: kernel.ModeDAX, SerialReads: so.counted,
		})
		st.services = []*server.Service{svc}
		st.entry, st.owner = svc, svc
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		st.listeners = []*listener{serveOn(ln, wrap(svc.Mux()), st.wire)}
		st.base, st.ownerBase = baseOf(ln), baseOf(ln)
	}

	// Clients of one tenant share a shard and are provisioned one after
	// the other, so the shard's simulated history (and with it the counted
	// pass) is the same every time; tenants on different shards go in
	// parallel.
	byTenant := make(map[string][]int)
	for c, id := range st.ids {
		st.states[c] = newClientState(w, c)
		byTenant[id.tenant] = append(byTenant[id.tenant], c)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(st.ids))
	for _, clients := range byTenant {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, c := range clients {
				if errs[c] = st.provision(c); errs[c] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	if w.fabric {
		shard := fsproto.ShardIndex(fsproto.TenantGID(st.ids[0].tenant), nShards)
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		n, err := st.entry.LogLen(ctx, shard)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("log length before migration: %w", err)
		}
		t0 := time.Now()
		if err := coord.Migrate(shard, st.ownerBase); err != nil {
			return nil, fmt.Errorf("migrate shard %d: %w", shard, err)
		}
		st.migrateSeconds = time.Since(t0).Seconds()
		st.migrateRecords = n
	}
	st.setupSeconds = time.Since(start).Seconds()
	ok = true
	return st, nil
}

// provision logs client c in, creates its object and prefills every unit
// with version 1; on fabric_hop it then writes the client's history.
func (st *stack) provision(c int) error {
	w, id := st.spec, st.ids[c]
	cl := fsclient.Dial(st.base)
	if err := cl.Login(id.tenant, id.uid, id.pass); err != nil {
		return fmt.Errorf("client %d login: %w", c, err)
	}
	st.clients[c] = cl
	buf := make([]byte, prefillChunk)
	if w.kv {
		if err := cl.KVCreate(fsproto.KVCreateRequest{Store: id.object, Size: w.kvPool}); err != nil {
			return fmt.Errorf("client %d kv create: %w", c, err)
		}
		for i := 0; i < w.units; i++ {
			fill(buf[:w.unit], uint32(c), uint32(i), 1)
			if err := cl.KVPut(fsproto.KVPutRequest{Store: id.object, Key: uint64(i), Value: buf[:w.unit]}); err != nil {
				return fmt.Errorf("client %d prefill key %d: %w", c, i, err)
			}
		}
	} else {
		if err := cl.Create(fsproto.CreateRequest{Name: id.object, Perm: 0600, Size: w.fileSize(), Encrypted: true}); err != nil {
			return fmt.Errorf("client %d create: %w", c, err)
		}
		for i := 0; i < w.units; i += prefillChunk / w.unit {
			chunk := w.prefill(buf, c, i)
			if err := cl.Write(fsproto.WriteRequest{Name: id.object, Offset: uint64(i * w.unit), Data: chunk}); err != nil {
				return fmt.Errorf("client %d prefill unit %d: %w", c, i, err)
			}
		}
	}
	// History: a fixed number of small writes, so the migration replays a
	// log of known length. Its own stream, so the window's stream stays
	// the seed's.
	cs := st.states[c]
	cs.reseed(0x68697374) // "hist"
	call := st.httpCaller()
	for i := 0; i < w.history; i++ {
		o := cs.next()
		o.class, o.version = classWrite, cs.ver[o.idx]+1
		if res := call(o, buf); res.err != nil {
			return fmt.Errorf("client %d history write %d: %w", c, i, res.err)
		}
	}
	return nil
}

// close shuts the listeners and drains the services.
func (st *stack) close() {
	for _, l := range st.listeners {
		l.close()
	}
	if len(st.nodes) > 0 {
		for _, n := range st.nodes {
			n.Close()
		}
	} else {
		for _, svc := range st.services {
			svc.Close()
		}
	}
	// fsclient.Dial shares http.DefaultTransport; drop its idle
	// connections to the port that just closed.
	http.DefaultClient.CloseIdleConnections()
}

// result is the outcome of one op at any layer.
type result struct {
	// dur is the time inside the layer's call alone: building the payload
	// and checking the reply are the benchmark's work, not the layer's.
	dur time.Duration
	err error
	// bad is set when a read returned bytes that differ from the last
	// acknowledged write.
	bad bool
	// reqID is the server's request id, where the layer has one.
	reqID string
}

func (r result) failed() bool { return r.err != nil || r.bad }

// caller issues one op at some layer and verifies it; scratch holds at
// least one unit.
type caller func(o op, scratch []byte) result

// settle finishes an op: a read is compared with the oracle, an
// acknowledged write is recorded in it.
func (st *stack) settle(o op, got, scratch []byte, res *result) {
	cs := st.states[o.client]
	switch {
	case res.err != nil:
	case o.class == classRead:
		res.bad = !cs.expect(o.idx, got, scratch)
	default:
		cs.acked(o)
	}
}

// httpCaller drives ops through the product client over HTTP.
func (st *stack) httpCaller() caller { return st.httpCallerVia(st.clients) }

func (st *stack) httpCallerVia(clients [2]*fsclient.Client) caller {
	w := st.spec
	return func(o op, scratch []byte) result {
		cl, id := clients[o.client], st.ids[o.client]
		off := uint64(o.idx) * uint64(w.unit)
		var res result
		var got []byte
		if o.class == classWrite {
			fill(scratch[:w.unit], uint32(o.client), o.idx, o.version)
		}
		t0 := time.Now()
		switch {
		case o.class == classRead && w.kv:
			got, res.err = cl.KVGet(fsproto.KVGetRequest{Store: id.object, Key: uint64(o.idx)})
		case o.class == classRead:
			got, res.err = cl.Read(fsproto.ReadRequest{Name: id.object, Offset: off, Length: w.unit})
		case w.kv:
			res.err = cl.KVPut(fsproto.KVPutRequest{Store: id.object, Key: uint64(o.idx), Value: scratch[:w.unit]})
		default:
			res.err = cl.Write(fsproto.WriteRequest{Name: id.object, Offset: off, Data: scratch[:w.unit]})
		}
		res.dur = time.Since(t0)
		res.reqID = cl.LastRequestID
		st.settle(o, got, scratch, &res)
		return res
	}
}

// directLogin opens a session for client c on the owner service itself.
func (st *stack) directLogin(c int) (*server.Session, error) {
	id := st.ids[c]
	s, err := st.owner.Login(context.Background(), id.tenant, id.uid, id.pass, 0)
	if err != nil {
		return nil, fmt.Errorf("direct login client %d: %w", c, err)
	}
	return s, nil
}

// issueDirect drives one op through the owner service's exported methods:
// everything below the HTTP handler, nothing above it.
func (st *stack) issueDirect(sess *server.Session, o op, scratch []byte) result {
	w, id, svc := st.spec, st.ids[o.client], st.owner
	off := uint64(o.idx) * uint64(w.unit)
	ctx := context.Background()
	var res result
	var pl server.Payload
	if o.class == classWrite {
		fill(scratch[:w.unit], uint32(o.client), o.idx, o.version)
	}
	t0 := time.Now()
	switch {
	case o.class == classRead && w.kv:
		pl, res.err = svc.KVGet(ctx, sess, fsproto.KVGetRequest{Store: id.object, Key: uint64(o.idx)})
	case o.class == classRead:
		pl, res.err = svc.Read(ctx, sess, fsproto.ReadRequest{Name: id.object, Offset: off, Length: w.unit})
	case w.kv:
		res.err = svc.KVPut(ctx, sess, fsproto.KVPutRequest{Store: id.object, Key: uint64(o.idx), Value: scratch[:w.unit]})
	default:
		res.err = svc.Write(ctx, sess, fsproto.WriteRequest{Name: id.object, Offset: off, Data: scratch[:w.unit]})
	}
	res.dur = time.Since(t0)
	st.settle(o, pl.Data, scratch, &res)
	pl.Release()
	return res
}

// directCaller is issueDirect with one session per client.
func (st *stack) directCaller() (caller, error) {
	var sess [2]*server.Session
	for c := range st.ids {
		s, err := st.directLogin(c)
		if err != nil {
			return nil, err
		}
		sess[c] = s
	}
	return func(o op, scratch []byte) result { return st.issueDirect(sess[o.client], o, scratch) }, nil
}

// ownerClients logs a second pair of product clients in at the owner's
// own URL (fabric_hop: the same ops without the hop).
func (st *stack) ownerClients() ([2]*fsclient.Client, error) {
	var out [2]*fsclient.Client
	for c, id := range st.ids {
		cl := fsclient.Dial(st.ownerBase)
		if err := cl.Login(id.tenant, id.uid, id.pass); err != nil {
			return out, fmt.Errorf("owner login client %d: %w", c, err)
		}
		out[c] = cl
	}
	return out, nil
}

// epilogue runs the end-of-workload checks: every service's audit chain
// verifies, and a third tenant's read of client 0's object is denied.
func (st *stack) epilogue() error {
	for i, svc := range st.services {
		if err := svc.VerifyAudit(); err != nil {
			return fmt.Errorf("audit chain of service %d: %w", i, err)
		}
	}
	in, victim := st.spec.intruder(), st.ids[0]
	cl := fsclient.Dial(st.base)
	if err := cl.Login(in.tenant, in.uid, in.pass); err != nil {
		return fmt.Errorf("intruder login: %w", err)
	}
	var got []byte
	var err error
	if st.spec.kv {
		got, err = cl.KVGet(fsproto.KVGetRequest{Store: victim.object, Tenant: victim.tenant, Key: 0})
	} else {
		got, err = cl.Read(fsproto.ReadRequest{Name: victim.object, Tenant: victim.tenant, Offset: 0, Length: st.spec.unit})
	}
	var ae *fsclient.APIError
	if err == nil || !errors.As(err, &ae) || ae.Status != http.StatusForbidden || len(got) != 0 {
		return fmt.Errorf("cross-tenant read by %s was not denied: %d bytes, err %v", in.tenant, len(got), err)
	}
	return nil
}
