package controller

import (
	"bufio"
	"context"
	"errors"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
)

// Control streams (DESIGN.md §15): choose and report travel as frames over
// one persistent connection per caller, upgraded from GET /v1/control on
// the listener a controller (or the ring router) already serves. A frame
// carries its pair in the header and a binary body, and its answer the
// HTTP status code the POST endpoint would give, so everything above the
// carrier — retryable(), failover, the breaker, redirects — is unchanged.

// A MessageFunc answers one choose or report message for the pair (src,
// dst): it appends the reply body to out and returns the HTTP status the
// exchange carries. done closes when the stream is severed, so a message
// waiting for admission stops waiting for a caller that is gone.
type MessageFunc func(op transport.Op, src, dst int32, body []byte, done <-chan struct{}, out []byte) (int, []byte)

// A MessageCheck vets one message by its header before it is served, the
// per-message counterpart of middleware in front of the POST endpoints:
// status 0 passes the message on; any other status is the answer instead,
// with reply as its body.
type MessageCheck func(op transport.Op, src, dst int32) (status int, reply string)

type checkKey struct{}

// WithMessageCheck returns r carrying check, so that a control stream
// upgraded from r runs check on every message before serving it. ring.Gate
// attaches its ownership check to the upgrade request this way.
func WithMessageCheck(r *http.Request, check MessageCheck) *http.Request {
	return r.WithContext(context.WithValue(r.Context(), checkKey{}, check))
}

// switchingProtocols is the whole 101 response of an accepted upgrade.
const switchingProtocols = "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " +
	transport.ControlProtocol + "\r\n\r\n"

// streamTimeouts are the read bounds a stream inherits from the http.Server
// that accepted its upgrade, so a hijacked stream is guarded as that
// server's keep-alive connections are. idle bounds the wait for the next
// frame's header (the server's IdleTimeout, else its ReadTimeout, as
// net/http idles); frame bounds reading that frame's body once its header
// is in, and writing its answer (the server's ReadTimeout). Zero is no
// bound, as it is for the server.
type streamTimeouts struct{ idle, frame time.Duration }

// timeoutsOf returns the stream timeouts of the server that accepted r.
func timeoutsOf(r *http.Request) streamTimeouts {
	srv, _ := r.Context().Value(http.ServerContextKey).(*http.Server)
	if srv == nil {
		return streamTimeouts{}
	}
	t := streamTimeouts{idle: srv.IdleTimeout, frame: srv.ReadTimeout}
	if t.idle == 0 {
		t.idle = srv.ReadTimeout
	}
	return t
}

// after is the deadline d from now; the zero time (no deadline) for d = 0.
func after(d time.Duration) time.Time {
	if d <= 0 {
		return time.Time{}
	}
	return time.Now().Add(d)
}

// StreamServer serves control streams: it upgrades the request, hijacks the
// connection, and answers each request frame through its MessageFunc from a
// goroutine of its own. Hijacked connections are invisible to http.Server,
// so the StreamServer tracks them itself and Close severs them.
type StreamServer struct {
	serve MessageFunc
	open  *obs.Gauge
	done  chan struct{} // closed by Close
	wg    sync.WaitGroup

	mu     sync.Mutex
	conns  map[net.Conn]struct{} // guarded by mu
	closed bool                  // guarded by mu
}

// NewStreamServer builds a stream server answering through serve. open, if
// not nil, tracks the number of open streams.
func NewStreamServer(serve MessageFunc, open *obs.Gauge) *StreamServer {
	if open == nil {
		open = new(obs.Gauge)
	}
	return &StreamServer{serve: serve, open: open, done: make(chan struct{}), conns: make(map[net.Conn]struct{})}
}

// ServeHTTP upgrades GET /v1/control to a control stream. A request without
// the upgrade headers is answered 426; once Close has run, 503.
func (ss *StreamServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !strings.EqualFold(r.Header.Get("Upgrade"), transport.ControlProtocol) ||
		!headerHasToken(r.Header, "Connection", "upgrade") {
		w.Header().Set("Upgrade", transport.ControlProtocol)
		http.Error(w, "expected Upgrade: "+transport.ControlProtocol, http.StatusUpgradeRequired)
		return
	}
	check, _ := r.Context().Value(checkKey{}).(MessageCheck)
	limits := timeoutsOf(r)
	ss.mu.Lock()
	if ss.closed {
		ss.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		http.Error(w, "control streams closed", http.StatusServiceUnavailable)
		return
	}
	conn, brw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		ss.mu.Unlock()
		http.Error(w, "control stream: "+err.Error(), http.StatusInternalServerError)
		return
	}
	ss.conns[conn] = struct{}{}
	ss.wg.Add(1) // under mu, before Close can set closed and Wait
	ss.mu.Unlock()
	ss.open.Add(1)
	go func() {
		defer ss.wg.Done()
		ss.serveConn(conn, brw.Reader, check, limits)
	}()
}

// headerHasToken reports whether a comma-separated header contains token.
func headerHasToken(h http.Header, name, token string) bool {
	for _, v := range h.Values(name) {
		for _, t := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(t), token) {
				return true
			}
		}
	}
	return false
}

// serveConn answers one stream's frames until the peer goes away, idles or
// stalls past its limits, a frame is malformed, or Close severs the
// connection. Reads go through br, which may already hold bytes the peer
// sent behind its upgrade request.
func (ss *StreamServer) serveConn(conn net.Conn, br *bufio.Reader, check MessageCheck, limits streamTimeouts) {
	defer ss.forget(conn)
	// http.Server's deadlines were set on the connection for one request;
	// from here on the stream sets its own.
	if conn.SetDeadline(after(limits.frame)) != nil {
		return
	}
	if _, err := conn.Write([]byte(switchingProtocols)); err != nil {
		return
	}
	for {
		if conn.SetReadDeadline(after(limits.idle)) != nil {
			return
		}
		if _, err := br.Peek(transport.RequestHeaderLen); err != nil {
			return // the peer closed or idled out, or stalled inside a header
		}
		if conn.SetReadDeadline(after(limits.frame)) != nil {
			return
		}
		if !ss.serveFrame(conn, br, check, limits.frame) {
			return
		}
	}
}

// serveFrame reads one request frame, answers it, and reports whether the
// stream can carry another. The frame and its answer live in buffers from
// the transport pool, so a stream holds none between messages.
func (ss *StreamServer) serveFrame(conn net.Conn, br *bufio.Reader, check MessageCheck, writeWithin time.Duration) bool {
	in, out := transport.GetBuffer(), transport.GetBuffer()
	defer in.Release()
	defer out.Release()
	op, src, dst, body, err := transport.ReadRequestFrame(br, in.B)
	in.B = body
	status, reply, keep := 0, append(out.B[:0], make([]byte, transport.ResponseHeaderLen)...), true
	switch {
	case errors.Is(err, transport.ErrFrameTooLarge):
		// The body is unread, so the stream cannot carry another frame:
		// answer, as the POST endpoints do, and close.
		status, reply, keep = http.StatusRequestEntityTooLarge, append(reply, "request body too large"...), false
	case err != nil:
		return false // the peer closed, or stalled or hung up inside a frame
	case check != nil:
		var text string
		if status, text = check(op, src, dst); status != 0 {
			reply = append(reply, text...)
		}
	}
	if status == 0 {
		status, reply = ss.serve(op, src, dst, body, ss.done, reply)
	}
	out.B = reply
	if transport.PutResponseHeader(reply, status) != nil {
		reply = append(reply[:transport.ResponseHeaderLen], "reply too large"...)
		transport.PutResponseHeader(reply, http.StatusInternalServerError) //vialint:ignore errwrap a 15-byte body is within bounds
	}
	if conn.SetWriteDeadline(after(writeWithin)) != nil {
		return false
	}
	_, err = conn.Write(reply)
	return keep && err == nil
}

// forget drops a finished stream from the table and closes it.
func (ss *StreamServer) forget(conn net.Conn) {
	ss.mu.Lock()
	delete(ss.conns, conn)
	ss.mu.Unlock()
	conn.Close() //vialint:ignore errwrap the stream is over; a close error has no one to report to
	ss.open.Add(-1)
}

// Close severs every open stream, refuses new upgrades (503), and returns
// once every stream's goroutine has exited — a message being served when
// its stream is severed finishes first, so nothing reaches the owner after
// Close returns. Idempotent.
func (ss *StreamServer) Close() {
	ss.mu.Lock()
	var conns []net.Conn
	if !ss.closed {
		ss.closed = true
		close(ss.done)
		for c := range ss.conns {
			conns = append(conns, c)
		}
	}
	ss.mu.Unlock()
	for _, c := range conns {
		// The stream's own goroutine sees the read fail and forgets it.
		c.Close() //vialint:ignore errwrap severing is the point; a close error leaves nothing to undo
	}
	ss.wg.Wait()
}
