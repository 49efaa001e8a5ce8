package server

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fsencr/internal/fsclient"
	"fsencr/internal/fsproto"
	"fsencr/internal/kernel"
	"fsencr/internal/memctrl"
)

// acceptCounter counts the connections a listener hands out.
type acceptCounter struct {
	net.Listener
	n atomic.Int64
}

func (l *acceptCounter) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.n.Add(1)
	}
	return c, err
}

// hopPair boots a two-shard cluster by hand: the entry node owns shard 0
// and forwards everything for shard 1 to the owner node. It returns both
// services, the entry's URL, the owner's URL and accept counter, and one
// tenant name homed on each shard.
type hopPair struct {
	entry, owner       *Service
	entryURL, ownerURL string
	ownerAccepts       *acceptCounter
	tenant             [2]string
}

func newHopPair(t *testing.T, ownerOpts Options) *hopPair {
	t.Helper()
	p := &hopPair{}
	for _, name := range []string{"acme", "globex", "initech", "umbrella", "wayne", "stark"} {
		if i := fsproto.ShardIndex(fsproto.TenantGID(name), 2); p.tenant[i] == "" {
			p.tenant[i] = name
		}
	}
	if p.tenant[0] == "" || p.tenant[1] == "" {
		t.Fatal("no tenant name for one of the two shards")
	}
	base := Options{
		Shards: 2, ClusterShards: 2,
		MCMode: memctrl.Mode{MemEncryption: true, FileEncryption: true}, Access: kernel.ModeDAX,
	}
	ownerOpts.Shards, ownerOpts.ClusterShards, ownerOpts.MCMode, ownerOpts.Access = base.Shards, base.ClusterShards, base.MCMode, base.Access
	ownerOpts.OwnedShards, ownerOpts.TokenPrefix = []int{1}, "o"
	p.owner = New(ownerOpts)
	ohs := httptest.NewUnstartedServer(p.owner.Mux())
	p.ownerAccepts = &acceptCounter{Listener: ohs.Listener}
	ohs.Listener = p.ownerAccepts
	ohs.Start()
	p.ownerURL = ohs.URL

	base.OwnedShards, base.TokenPrefix = []int{0}, "e"
	p.entry = New(base)
	p.entry.SetForwarder(func(int) (string, bool) { return p.ownerURL, true })
	ehs := httptest.NewServer(p.entry.Mux())
	p.entryURL = ehs.URL
	t.Cleanup(func() {
		p.entry.Close()
		ehs.Close()
		p.owner.Close()
		ohs.Close()
	})
	return p
}

// TestForwardRelaysQueueDepth: a request forwarded to an owner whose queue
// is full comes back 429 with the owner's depth hint, so a client behind
// the hop backs off by the congestion there is, not blind.
func TestForwardRelaysQueueDepth(t *testing.T) {
	const slots = 3
	p := newHopPair(t, Options{PerTenantQueue: slots, RequestTimeout: 100 * time.Millisecond})
	// Take every admission slot of the target tenant on the owner.
	sh := p.owner.Shards()[0]
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < slots; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sh.Do(context.Background(), fsproto.TenantGID(p.tenant[1]), 0, func() (any, error) {
				<-gate
				return nil, nil
			})
		}()
	}
	defer wg.Wait()
	defer close(gate)
	for deadline := time.Now().Add(5 * time.Second); sh.depth.Load() < slots; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("owner queue depth %d, want %d", sh.depth.Load(), slots)
		}
	}

	cl := fsclient.Dial(p.entryURL)
	defer cl.Close()
	if err := cl.Login(p.tenant[0], 1, "pw"); err != nil {
		t.Fatalf("login at the entry node: %v", err)
	}
	err := cl.Write(fsproto.WriteRequest{Name: "f.bin", Tenant: p.tenant[1], Passphrase: "pw", Data: []byte("x")})
	var ae *fsclient.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusTooManyRequests {
		t.Fatalf("forwarded write to a full owner: %v, want a 429", err)
	}
	if ae.QueueDepth != slots {
		t.Fatalf("429 through the hop carries queue depth %d, want the owner's %d", ae.QueueDepth, slots)
	}
	if got := p.entry.reg.Counter("server.forwarded_total").Value(); got != 1 {
		t.Fatalf("server.forwarded_total = %d, want 1", got)
	}
}

// TestForwardConnsReused: concurrent forwards share the hop's idle list —
// the owner sees no more connections than forwards were ever in flight at
// once — and closing the service closes the idle ones. Under -race this is
// the idle list's concurrency test.
func TestForwardConnsReused(t *testing.T) {
	const clients, rounds = 4, 40
	p := newHopPair(t, Options{})
	want := bytes.Repeat([]byte{0x5a}, 256)
	oc := fsclient.Dial(p.ownerURL)
	defer oc.Close()
	if err := oc.Login(p.tenant[1], 1, "pw-owner"); err != nil {
		t.Fatalf("login at the owner: %v", err)
	}
	if err := oc.Create(fsproto.CreateRequest{Name: "f.bin", Perm: 0644, Size: 8192, Encrypted: true}); err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := oc.Write(fsproto.WriteRequest{Name: "f.bin", Data: want}); err != nil {
		t.Fatalf("write: %v", err)
	}
	direct := p.ownerAccepts.n.Load()

	errc := make(chan error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(uid uint32) {
			defer wg.Done()
			cl := fsclient.Dial(p.entryURL)
			defer cl.Close()
			if err := cl.Login(p.tenant[0], uid, "pw"); err != nil {
				errc <- err
				return
			}
			for j := 0; j < rounds; j++ {
				got, err := cl.Read(fsproto.ReadRequest{Name: "f.bin", Tenant: p.tenant[1], Passphrase: "pw-owner", Length: len(want)})
				if err == nil && !bytes.Equal(got, want) {
					err = errors.New("forwarded read returned wrong bytes")
				}
				if err != nil {
					errc <- err
					return
				}
			}
		}(uint32(i + 1))
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatalf("forwarded read: %v", err)
	default:
	}
	if got := p.entry.reg.Counter("server.forwarded_total").Value(); got != clients*rounds {
		t.Fatalf("server.forwarded_total = %d, want %d", got, clients*rounds)
	}
	if hop := p.ownerAccepts.n.Load() - direct; hop < 1 || hop > clients {
		t.Fatalf("%d forwards from %d clients opened %d connections to the owner, want 1..%d",
			clients*rounds, clients, hop, clients)
	}
	p.entry.Close()
	p.entry.hop.mu.Lock()
	idle, closed := len(p.entry.hop.idle), p.entry.hop.closed
	p.entry.hop.mu.Unlock()
	if idle != 0 || !closed {
		t.Fatalf("after Close: %d owners with idle hop connections, closed=%v", idle, closed)
	}
}

// TestLoadgenConnections: every loadgen client owns one connection and
// closes it — N clients are exactly N accepts — and the run leaves no
// goroutine behind: a round trip starts none, and a closed client holds
// none.
func TestLoadgenConnections(t *testing.T) {
	const clients = 24
	svc := New(Options{
		Shards: 2,
		MCMode: memctrl.Mode{MemEncryption: true, FileEncryption: true}, Access: kernel.ModeDAX,
	})
	hs := httptest.NewUnstartedServer(svc.Mux())
	accepts := &acceptCounter{Listener: hs.Listener}
	hs.Listener = accepts
	hs.Start()
	defer func() {
		svc.Close()
		hs.Close()
	}()

	before := runtime.NumGoroutine()
	rep, err := fsclient.RunLoadgen(hs.URL, fsclient.LoadgenOptions{Clients: clients, Tenants: 3, Ops: 16, Mix: "3:1", Seed: 5})
	if err != nil || rep.Errors != 0 {
		t.Fatalf("loadgen: %v, report %+v", err, rep)
	}
	if n := accepts.n.Load(); n != clients {
		t.Errorf("%d loadgen clients made %d connections, want one each", clients, n)
	}
	// The server's per-connection goroutines end when they see the close.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the run, %d after", before, runtime.NumGoroutine())
		}
	}
}

// countingConn counts the Read calls that returned — one per read(2) the
// server made on the connection, an aborted background read included, the
// one an idle connection is parked in not — and the Write calls made (the
// peer can act on a write before the writer gets to count it).
type countingConn struct {
	net.Conn
	reads, writes *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.reads.Add(1)
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

type countingListener struct {
	net.Listener
	reads, writes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, &l.reads, &l.writes}, nil
}

// TestExchangeSyscalls: once the request loop has a connection, the server's
// half of a 4 KiB read is one read and one write (internal/fsproto's test of
// the same name counts both ends of the bare loop). Under net/http it was
// two and two: a background read aborted per request, and head + 4096 bytes
// not fitting a 4 KiB bufio.Writer. The taken-over connection is visible on
// the two signals, and Close ends it.
func TestExchangeSyscalls(t *testing.T) {
	const rounds = 50
	svc := New(Options{
		Shards: 1,
		MCMode: memctrl.Mode{MemEncryption: true, FileEncryption: true}, Access: kernel.ModeDAX,
	})
	hs := httptest.NewUnstartedServer(svc.Mux())
	ln := &countingListener{Listener: hs.Listener}
	hs.Listener = ln
	hs.Start()
	defer hs.Close()
	defer svc.Close()

	cl := fsclient.Dial(hs.URL)
	defer cl.Close()
	if err := cl.Login("acme", 1, "pw"); err != nil {
		t.Fatalf("login: %v", err)
	}
	if err := cl.Create(fsproto.CreateRequest{Name: "f.dat", Perm: 0600, Size: 1 << 16, Encrypted: true}); err != nil {
		t.Fatalf("create: %v", err)
	}
	want := bytes.Repeat([]byte{0x5a}, 4096)
	if err := cl.Write(fsproto.WriteRequest{Name: "f.dat", Data: want}); err != nil {
		t.Fatalf("write: %v", err)
	}
	r0, w0 := ln.reads.Load(), ln.writes.Load()
	for i := 0; i < rounds; i++ {
		if got, err := cl.Read(fsproto.ReadRequest{Name: "f.dat", Length: 4096}); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("read %d: err %v, equal %v", i, err, bytes.Equal(got, want))
		}
	}
	if r, w := ln.reads.Load()-r0, ln.writes.Load()-w0; r != rounds || w != rounds {
		t.Errorf("server made %d reads and %d writes for %d page reads, want one of each per request", r, w, rounds)
	}
	if open, taken := svc.conns.gOpen.Value(), svc.conns.cTaken.Value(); open != 1 || taken != 1 {
		t.Errorf("server.data_conns = %d, server.conn_takeovers_total = %d, want 1 and 1", open, taken)
	}
	svc.Close()
	if open := svc.conns.gOpen.Value(); open != 0 {
		t.Errorf("server.data_conns = %d after Close, want 0", open)
	}
}
