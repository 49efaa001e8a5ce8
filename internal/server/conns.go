package server

// conns.go: the two sets of data-plane connections a Service holds — the
// ones its request loop has taken over from net/http (dataConns), and the
// forward hop's idle connections to other nodes (hopConns).

import (
	"bufio"
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fsencr/internal/fsproto"
	"fsencr/internal/telemetry"
)

// serveConn runs the request loop on a connection taken over from net/http.
func (svc *Service) serveConn(nc net.Conn, br *bufio.Reader) {
	if !svc.conns.add(nc) {
		nc.Close() // draining: the client's next request redials
		return
	}
	defer svc.conns.remove(nc)
	var held Payload // backs the last answer's body: released when the loop is done with it
	err := fsproto.ServeConn(nc, br, func(req *fsproto.Request) fsproto.Response {
		held.Release()
		var resp fsproto.Response
		resp, held = svc.handle(req)
		return resp
	})
	held.Release()
	var we *fsproto.WireError
	if errors.As(err, &we) && we.Op == "write" {
		svc.cEncErrs.Inc()
	}
}

// dataConns tracks the connections the request loop has taken over:
// http.Server.Shutdown no longer sees them, so the service drains them.
type dataConns struct {
	mu       sync.Mutex
	open     map[net.Conn]struct{}
	wg       sync.WaitGroup // one per open connection
	draining atomic.Bool
	gOpen    *telemetry.Gauge
	cTaken   *telemetry.Counter
}

func (c *dataConns) add(nc net.Conn) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining.Load() {
		return false
	}
	if c.open == nil {
		c.open = make(map[net.Conn]struct{})
	}
	c.open[nc] = struct{}{}
	c.wg.Add(1)
	c.cTaken.Inc()
	c.gOpen.Set(uint64(len(c.open)))
	return true
}

func (c *dataConns) remove(nc net.Conn) {
	c.mu.Lock()
	delete(c.open, nc)
	c.gOpen.Set(uint64(len(c.open)))
	c.mu.Unlock()
	c.wg.Done()
}

// drainEach marks the set draining and calls fn on every open connection.
func (c *dataConns) drainEach(fn func(net.Conn)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.draining.Store(true)
	for nc := range c.open {
		fn(nc)
	}
}

// drain ends every taken-over connection and waits for its loop: one
// waiting for a request is kicked by a read deadline in the past, one inside
// a request finishes it and answers with "Connection: close" (handle sees
// draining). A connection still open when ctx ends is closed under its
// loop. Conn.Do's one transparent resend covers a client that meets the
// closed idle connection.
func (c *dataConns) drain(ctx context.Context) {
	// SetReadDeadline fails only on a connection already closed.
	c.drainEach(func(nc net.Conn) { _ = nc.SetReadDeadline(time.Unix(1, 0)) })
	defer context.AfterFunc(ctx, func() { c.drainEach(func(nc net.Conn) { nc.Close() }) })()
	c.wg.Wait()
}

// hopConns holds the forward hop's connections: per owner base URL, a short
// list of idle ones. A forward takes one (a new one when the list is empty),
// owns it for its exchange, and puts it back.
type hopConns struct {
	mu     sync.Mutex
	idle   map[string][]*fsproto.Conn
	closed bool
}

// maxIdleHopConns bounds the idle list of one owner; a forward that finds
// it full on return closes its connection.
const maxIdleHopConns = 8

func (h *hopConns) get(base string) (*fsproto.Conn, error) {
	h.mu.Lock()
	if l := h.idle[base]; len(l) > 0 {
		// The most recently used: the least likely to have been closed.
		conn := l[len(l)-1]
		h.idle[base] = l[:len(l)-1]
		h.mu.Unlock()
		return conn, nil
	}
	h.mu.Unlock()
	return fsproto.Dial(base)
}

func (h *hopConns) put(base string, conn *fsproto.Conn) {
	h.mu.Lock()
	keep := !h.closed && len(h.idle[base]) < maxIdleHopConns
	if keep {
		if h.idle == nil {
			h.idle = make(map[string][]*fsproto.Conn)
		}
		h.idle[base] = append(h.idle[base], conn)
	}
	h.mu.Unlock()
	if !keep {
		conn.Close()
	}
}

// close closes the idle connections; one out on a forward is closed when
// it comes back.
func (h *hopConns) close() {
	h.mu.Lock()
	idle := h.idle
	h.idle, h.closed = nil, true
	h.mu.Unlock()
	for _, l := range idle {
		for _, conn := range l {
			conn.Close()
		}
	}
}
