package controller

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"syscall"
	"time"

	"repro/internal/transport"
)

// The client's side of the control stream (control.go): choose and report
// go out as frames over a pooled stream per endpoint. Each exchange writes
// its frame and reads the answer on the calling goroutine — no reader
// goroutine, no multiplexing — so a stream carries one message at a time
// and concurrent callers each hold their own.

// maxIdleStreams bounds the idle streams the client keeps per endpoint;
// a stream returned beyond it is closed.
const maxIdleStreams = 4

// ctlStream is one upgraded connection to an endpoint.
type ctlStream struct {
	base string
	rwc  io.ReadWriteCloser // the 101 response's body: the connection
	br   *bufio.Reader
	in   []byte // response bodies, reused
	// The 101 body has no SetDeadline, so a timer closes the stream when an
	// exchange outlives its attempt's deadline; it is reset per exchange.
	timer *time.Timer
}

// errStreamTimeout is the error of an exchange the stream's timer cut
// short.
var errStreamTimeout = errors.New("controller: no answer before the attempt deadline")

// roundTrip writes one request frame and reads the response frame, both
// before deadline. early reports that the stream failed before any
// response byte arrived.
func (st *ctlStream) roundTrip(frame []byte, deadline time.Time) (status int, body []byte, early bool, err error) {
	st.timer.Reset(time.Until(deadline))
	if _, err = st.rwc.Write(frame); err != nil {
		early = true
	} else if _, err = st.br.Peek(1); err != nil {
		early = true
	} else if status, body, err = transport.ReadResponseFrame(st.br, st.in); err == nil {
		st.in = body
	}
	if !st.timer.Stop() {
		return 0, nil, false, errStreamTimeout // the timer has closed (or is closing) the stream
	}
	return status, body, early, err
}

func (st *ctlStream) close() {
	st.timer.Stop()
	st.rwc.Close() //vialint:ignore errwrap the stream is being discarded; a close error changes nothing
}

// peerClosed reports whether err is the signature of a stream the server
// closed while it sat idle in the pool — a restart, or Server.Close
// severing it — as opposed to a timeout or an injected fault.
func peerClosed(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE)
}

// takeStream pops an idle stream to base, if there is one.
func (c *Client) takeStream(base string) *ctlStream {
	c.streamMu.Lock()
	defer c.streamMu.Unlock()
	idle := c.idle[base]
	if len(idle) == 0 {
		return nil
	}
	st := idle[len(idle)-1]
	c.idle[base] = idle[:len(idle)-1]
	return st
}

// putStream returns a healthy stream to the idle pool.
func (c *Client) putStream(st *ctlStream) {
	c.streamMu.Lock()
	if c.idle == nil {
		c.idle = make(map[string][]*ctlStream)
	}
	idle := c.idle[st.base]
	if len(idle) < maxIdleStreams {
		c.idle[st.base] = append(idle, st)
		st = nil
	}
	c.streamMu.Unlock()
	if st != nil {
		st.close()
	}
}

// dial opens a control stream to base by an HTTP Upgrade, sent through
// c.HTTP's RoundTripper — the control plane's one seam (fault injection,
// tracing). Not through c.HTTP.Do: the client-level Timeout would wrap the
// 101 body in a reader that hides Write and cuts the stream after it
// expires. The upgrade must be answered before deadline. An upgrade
// refused with status S returns S and no stream.
func (c *Client) dial(base string, deadline time.Time) (*ctlStream, int, error) {
	var rt http.RoundTripper = http.DefaultTransport
	if c.HTTP != nil && c.HTTP.Transport != nil {
		rt = c.HTTP.Transport
	}
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel() // bounds the upgrade only: the stream outlives it
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+transport.ControlPath, nil)
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", transport.ControlProtocol)
	r, err := rt.RoundTrip(req)
	if err != nil {
		return nil, 0, err
	}
	rwc, ok := r.Body.(io.ReadWriteCloser)
	if r.StatusCode != http.StatusSwitchingProtocols || !ok {
		r.Body.Close() //vialint:ignore errwrap a refused upgrade's body is discarded; its status is the answer
		if r.StatusCode == http.StatusSwitchingProtocols {
			return nil, 0, fmt.Errorf("controller: %s: upgraded connection is not writable", base)
		}
		return nil, r.StatusCode, nil
	}
	st := &ctlStream{base: base, rwc: rwc, br: bufio.NewReaderSize(rwc, 1024)}
	st.timer = time.AfterFunc(time.Hour, func() {
		rwc.Close() //vialint:ignore errwrap the deadline is being enforced; the exchange reports the timeout
	})
	st.timer.Stop() // each exchange arms it with its own deadline
	return st, 0, nil
}

// send makes one exchange with base over a control stream, all of it —
// upgrade, message, answer, any redial — within timeout, as one POST was.
// It returns the response status; a 200's binary body is decoded into
// resp, any other status's body (a 307's is the owner's base URL) is
// returned as text. A pooled stream the server closed while it sat idle
// fails before any response byte: it is thrown away and the exchange
// redialled once, within the same deadline.
func (c *Client) send(base string, frame []byte, resp streamResponse, timeout time.Duration) (int, string, error) {
	deadline := time.Now().Add(timeout)
	st := c.takeStream(base)
	pooled := st != nil
	for {
		if st == nil {
			var status int
			var err error
			if st, status, err = c.dial(base, deadline); st == nil {
				return status, "upgrade refused", err
			}
		}
		status, body, early, err := st.roundTrip(frame, deadline)
		if err != nil {
			st.close()
			if pooled && early && peerClosed(err) {
				st, pooled = nil, false
				continue
			}
			return 0, "", fmt.Errorf("controller: %s: %w", base, err)
		}
		if status != http.StatusOK {
			text := string(body)
			c.putStream(st)
			return status, text, nil
		}
		if err := resp.DecodeBinary(body); err != nil {
			st.close()
			return 0, "", fmt.Errorf("controller: %s decode: %w", base, err)
		}
		c.putStream(st)
		return status, "", nil
	}
}

// exchange sends one choose or report, already framed, with the client's
// retry budget, jittered backoff and circuit breaker. Each attempt goes to
// the endpoints that serve the pair: with a shard map installed, the
// owner's primary then its standby; without, the current failover
// endpoint, which a connection error or a retryable status advances. A 307
// — a stale map, or a shard that is not the owner — is followed once to the
// base URL it names, and triggers a map refresh so later requests go
// direct.
func (c *Client) exchange(op transport.Op, src, dst int32, frame []byte, resp streamResponse) error {
	brk := c.breakerState()
	if !brk.allow() {
		return ErrCircuitOpen
	}
	p := c.policy()
	var lastErr error
	for attempt := 0; attempt < p.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.backoff(p, attempt)
		}
		var targets [2]string
		n, cur := 0, -1
		if m := c.shardMap(); m != nil {
			primary, standby := m.Owner(src, dst)
			for _, t := range [2]string{primary, standby} {
				if t != "" {
					targets[n] = t
					n++
				}
			}
		} else {
			var eps []string
			eps, cur = c.endpoint()
			targets[0], n = eps[cur], 1
		}
		for _, base := range targets[:n] {
			status, text, err := c.send(base, frame, resp, p.Timeout)
			if err == nil && status == http.StatusTemporaryRedirect {
				c.redirects.Add(1)
				c.refreshShardMap()
				base = text
				status, text, err = c.send(base, frame, resp, p.Timeout)
			}
			switch {
			case err != nil:
				lastErr = err
			case status == http.StatusOK:
				brk.success()
				return nil
			default:
				lastErr = fmt.Errorf("controller: %s%s returned %d: %s", base, op.Path(), status, text)
				if !retryable(status) && status != http.StatusTemporaryRedirect {
					brk.failure()
					return lastErr
				}
			}
			if cur >= 0 {
				c.failover(cur)
			}
		}
	}
	brk.failure()
	return lastErr
}

// streamResponse is the decoder of a 200's binary body.
type streamResponse interface {
	DecodeBinary(body []byte) error
}

// reportAck is a report's 200 body, which is empty.
type reportAck struct{}

func (reportAck) DecodeBinary(body []byte) error {
	if len(body) != 0 {
		return errors.New("controller: a report's answer carries a body")
	}
	return nil
}

// call frames one message for the pair (src, dst) — encode appends its
// body — and exchanges it.
func (c *Client) call(op transport.Op, src, dst int32, encode func([]byte) ([]byte, error), resp streamResponse) error {
	buf := transport.GetBuffer()
	defer buf.Release() // the stream write is synchronous: nothing holds the frame after exchange
	buf.B = append(buf.B[:0], make([]byte, transport.RequestHeaderLen)...)
	var err error
	if buf.B, err = encode(buf.B); err != nil {
		return err
	}
	if err := transport.PutRequestHeader(buf.B, op, src, dst); err != nil {
		return err
	}
	return c.exchange(op, src, dst, buf.B, resp)
}
