package main

import (
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/quality"
)

// The timing wrappers interpose on interfaces the program already accepts.
// Each forwards every call unchanged (wrap_test.go checks that), and they
// are installed in traced repetitions only: end-to-end metrics come from
// systems with none of them in place.

// Trace context crosses the HTTP hop in two request headers.
const (
	hdrSpan = "X-Bench-Span" // id of the client-side span that caused the request
	hdrCall = "X-Bench-Call"
)

// timedPlane is a client.ControlPlane that times the inner plane's calls.
// One caller goroutine owns it; parent and call are set by that goroutine
// before each Selector call.
type timedPlane struct {
	inner  client.ControlPlane
	rec    *recorder
	parent int32 // the enclosing selector span
	call   int32
	cur    int32 // the open client span, read by tagTransport on the same goroutine
}

func (p *timedPlane) Choose(src, dst int32, cands []netsim.Option) (netsim.Option, error) {
	p.cur = p.rec.begin(spClientChoose, p.parent, p.call)
	opt, err := p.inner.Choose(src, dst, cands)
	p.rec.end(p.cur)
	return opt, err
}

func (p *timedPlane) Report(src, dst int32, opt netsim.Option, m quality.Metrics) error {
	p.cur = p.rec.begin(spClientReport, p.parent, p.call)
	err := p.inner.Report(src, dst, opt, m)
	p.rec.end(p.cur)
	return err
}

// tagTransport stamps each outgoing request with its plane's open span, so
// the handler middleware can name its parent. http.Client calls RoundTrip
// on the goroutine that called Do, which is the plane's owner.
type tagTransport struct {
	base  http.RoundTripper
	plane *timedPlane
}

func (t tagTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tagged := *req // RoundTrip must not modify the caller's request
	tagged.Header = req.Header.Clone()
	tagged.Header.Set(hdrSpan, strconv.Itoa(int(t.plane.cur)))
	tagged.Header.Set(hdrCall, strconv.Itoa(int(t.plane.call)))
	return t.base.RoundTrip(&tagged)
}

// handlerTrace is what the handler middleware shares with the strategy
// decorator: the controller gives a strategy no request context, so a core
// span can name its parent only while requests do not overlap. The bench
// sets single for the latency phase (one closed-loop client), where the
// per-layer self times are taken; elsewhere core spans have parent 0.
type handlerTrace struct {
	rec    *recorder
	single atomic.Bool
	cur    atomic.Int32 // the open handler span
}

// wrap times choose and report requests through inner.
func (h *handlerTrace) wrap(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var name spanName
		switch r.URL.Path {
		case "/v1/choose":
			name = spHandlerChoose
		case "/v1/report":
			name = spHandlerReport
		default:
			inner.ServeHTTP(w, r)
			return
		}
		id := h.rec.begin(name, headerID(r, hdrSpan), headerID(r, hdrCall))
		h.cur.Store(id)
		inner.ServeHTTP(w, r)
		h.rec.end(id)
	})
}

// headerID reads a span or call id from a request header; an absent or
// malformed one reads 0, the root.
func headerID(r *http.Request, name string) int32 {
	id, err := strconv.ParseInt(r.Header.Get(name), 10, 32)
	if err != nil {
		return 0
	}
	return int32(id)
}

// timedStrategy decorates the controller's strategy. It forwards the
// StatefulStrategy methods too, so a durable controller accepts it.
type timedStrategy struct {
	inner controller.StatefulStrategy
	h     *handlerTrace
}

func (s *timedStrategy) parent() int32 {
	if s.h.single.Load() {
		return s.h.cur.Load()
	}
	return 0
}

func (s *timedStrategy) Name() string { return s.inner.Name() }

func (s *timedStrategy) Choose(c core.Call, cands []netsim.Option) netsim.Option {
	id := s.h.rec.begin(spCoreChoose, s.parent(), 0)
	opt := s.inner.Choose(c, cands)
	s.h.rec.end(id)
	return opt
}

func (s *timedStrategy) Observe(c core.Call, opt netsim.Option, m quality.Metrics) {
	id := s.h.rec.begin(spCoreObserve, s.parent(), 0)
	s.inner.Observe(c, opt, m)
	s.h.rec.end(id)
}

func (s *timedStrategy) SaveState(w io.Writer) error { return s.inner.SaveState(w) }
func (s *timedStrategy) LoadState(r io.Reader) error { return s.inner.LoadState(r) }

// timedConn is the net.PacketConn handed to relay.New. relay.Node.Serve is
// one goroutine, so the time from a ReadFrom returning to the next WriteTo
// being entered is what the relay spent on the packet (unmarshal, lock and
// tables, marshal), and no locking is needed here; the bench reads the
// samples only after Serve has returned. The sample slice is preallocated;
// once full, further samples are dropped, not grown.
type timedConn struct {
	net.PacketConn
	base    time.Time
	readAt  int64
	samples []connSample
}

// connSample is one forwarded packet's times, in ns since the conn's base.
type connSample struct {
	readAt, writeAt, writeEnd int64
}

func newTimedConn(inner net.PacketConn, base time.Time, capacity int) *timedConn {
	return &timedConn{PacketConn: inner, base: base, samples: make([]connSample, 0, capacity)}
}

func (c *timedConn) ReadFrom(b []byte) (int, net.Addr, error) {
	n, addr, err := c.PacketConn.ReadFrom(b)
	c.readAt = int64(time.Since(c.base))
	return n, addr, err
}

func (c *timedConn) WriteTo(b []byte, addr net.Addr) (int, error) {
	writeAt := int64(time.Since(c.base))
	n, err := c.PacketConn.WriteTo(b, addr)
	if len(c.samples) < cap(c.samples) {
		c.samples = append(c.samples, connSample{c.readAt, writeAt, int64(time.Since(c.base))})
	}
	return n, err
}
