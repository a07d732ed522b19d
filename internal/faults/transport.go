package faults

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// ErrInjected marks a control RPC failed by fault injection, so retry
// logic and tests can distinguish injected faults from real ones.
var ErrInjected = errors.New("faults: injected control-plane failure")

// FlakyTransport is an http.RoundTripper that injects control-plane
// faults in front of a real transport: a full partition (every request
// fails fast), probabilistic request drops, and fixed added latency. It
// is the packet-level counterpart of wan.Shaper for the HTTP control
// plane, and the knob PartitionController / DropControl / DelayControl
// events turn. Drop decisions are driven by a seeded RNG, so a plan
// replays identically.
//
// A control stream (an upgrade answered 101) is impaired per message, not
// per connection: its body is wrapped so that each Write — the client
// writes one frame per message — meets the partition, one drop draw and
// the delay, exactly as one plain request does. The upgrade itself only
// meets the partition, so a stream redialled under a partition fails too
// and a message costs one draw however its stream came about.
type FlakyTransport struct {
	base http.RoundTripper

	mu          sync.Mutex
	partitioned bool
	dropRate    float64
	delay       time.Duration
	rng         *stats.RNG

	injected atomic.Int64 // requests and stream messages failed by injection
	delayed  atomic.Int64 // requests and stream messages delayed by injection
}

// NewFlakyTransport wraps base (nil means http.DefaultTransport). With no
// faults configured it is transparent.
func NewFlakyTransport(base http.RoundTripper, seed uint64) *FlakyTransport {
	if base == nil {
		base = http.DefaultTransport
	}
	return &FlakyTransport{
		base: base,
		rng:  stats.NewRNG(seed).Split("faults-control"),
	}
}

// SetPartitioned turns the full partition on or off.
func (t *FlakyTransport) SetPartitioned(on bool) {
	t.mu.Lock()
	t.partitioned = on
	t.mu.Unlock()
}

// SetDropRate drops the given fraction of requests (0 disables).
func (t *FlakyTransport) SetDropRate(rate float64) {
	t.mu.Lock()
	t.dropRate = rate
	t.mu.Unlock()
}

// SetDelay adds fixed latency to every request (0 disables).
func (t *FlakyTransport) SetDelay(d time.Duration) {
	t.mu.Lock()
	t.delay = d
	t.mu.Unlock()
}

// Injected returns how many requests fault injection has failed.
func (t *FlakyTransport) Injected() int64 { return t.injected.Load() }

// RoundTrip applies the configured faults, then delegates.
func (t *FlakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	upgrade := req.Header.Get("Upgrade") != ""
	what := req.Method + " " + req.URL.Path
	if err := t.impair(req.Context().Done(), !upgrade, what); err != nil {
		if errors.Is(err, errAborted) {
			return nil, req.Context().Err()
		}
		return nil, err
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil || resp.StatusCode != http.StatusSwitchingProtocols {
		return resp, err
	}
	if rwc, ok := resp.Body.(io.ReadWriteCloser); ok {
		resp.Body = &flakyStream{ReadWriteCloser: rwc, t: t, closed: make(chan struct{})}
	}
	return resp, nil
}

// errAborted is impair's answer when done closes during an injected delay.
var errAborted = errors.New("faults: aborted during injected delay")

// impair applies the faults to one request or stream message: a partition
// fails it; when perMessage, one drop draw may fail it and the delay holds
// it, until done closes.
func (t *FlakyTransport) impair(done <-chan struct{}, perMessage bool, what string) error {
	t.mu.Lock()
	fail := t.partitioned
	if !fail && perMessage && t.dropRate > 0 {
		fail = t.rng.Float64() < t.dropRate
	}
	delay := t.delay
	t.mu.Unlock()

	if fail {
		t.injected.Add(1)
		return fmt.Errorf("%w: %s", ErrInjected, what)
	}
	if delay > 0 && perMessage {
		t.delayed.Add(1)
		timer := time.NewTimer(delay)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-done:
			return errAborted
		}
	}
	return nil
}

// flakyStream is a control stream's connection under the transport's
// faults: every Write is one message.
type flakyStream struct {
	io.ReadWriteCloser
	t      *FlakyTransport
	once   sync.Once
	closed chan struct{} // closed by Close, ending an injected delay
}

func (s *flakyStream) Write(p []byte) (int, error) {
	if err := s.t.impair(s.closed, true, "control stream message"); err != nil {
		return 0, err
	}
	return s.ReadWriteCloser.Write(p)
}

func (s *flakyStream) Close() error {
	s.once.Do(func() { close(s.closed) })
	return s.ReadWriteCloser.Close()
}
