package controller

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/quality"
	"repro/internal/transport"
)

// rawStream upgrades a plain TCP connection to base's control stream, the
// way any client could without the Go client.
func rawStream(t *testing.T, base string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	req := "GET " + transport.ControlPath + " HTTP/1.1\r\nHost: x\r\nConnection: Upgrade\r\nUpgrade: " + transport.ControlProtocol + "\r\n\r\n"
	if _, err := io.WriteString(conn, req); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		t.Fatalf("upgrade answered %s", resp.Status)
	}
	return conn, br
}

// exchangeRaw writes one request frame and reads the response frame.
func exchangeRaw(t *testing.T, conn net.Conn, br *bufio.Reader, op transport.Op, body string) (int, string) {
	t.Helper()
	frame := append(make([]byte, transport.RequestHeaderLen), body...)
	if err := transport.PutRequestHeader(frame, op); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	status, reply, err := transport.ReadResponseFrame(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	return status, string(reply)
}

// TestControlStreamAnswersLikePOST: over one stream, each message gets the
// status and the document the POST endpoint gives the same body — 200 with
// the same JSON, 400 for a bad body or an unknown op — and one bad message
// does not end the stream. A frame longer than MaxBodyBytes is answered 413
// and ends it (its body is never read); a GET without the upgrade headers
// is answered 426.
func TestControlStreamAnswersLikePOST(t *testing.T) {
	strat := &recordingStrategy{ret: netsim.TransitOption(1, 2)}
	s := New(Config{Strategy: strat})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close() //vialint:ignore errwrap test teardown close

	post := func(path, body string) (int, string) {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(out)
	}
	conn, br := rawStream(t, ts.URL)
	for _, m := range []struct {
		op   transport.Op
		body string
		want int
	}{
		{transport.OpChoose, `{"src":7,"dst":3,"candidates":[{"kind":"direct"},{"kind":"transit","r1":1,"r2":2}]}`, http.StatusOK},
		{transport.OpChoose, `{nope`, http.StatusBadRequest},
		{transport.OpReport, `{"src":7,"dst":3,"option":{"kind":"direct"},"metrics":{"rtt_ms":50,"loss_rate":0,"jitter_ms":1}}`, http.StatusOK},
		{transport.OpReport, `{"src":7,"dst":3,"option":{"kind":"direct"},"metrics":{"rtt_ms":-5,"loss_rate":0,"jitter_ms":1}}`, http.StatusBadRequest},
	} {
		status, reply := exchangeRaw(t, conn, br, m.op, m.body)
		pstatus, preply := post(m.op.Path(), m.body)
		if status != m.want || pstatus != m.want || reply+"\n" != preply {
			t.Errorf("%s %s: stream answered %d %q, POST %d %q; want %d and the same body", m.op.Path(), m.body, status, reply, pstatus, preply, m.want)
		}
	}
	if status, _ := exchangeRaw(t, conn, br, 9, `{}`); status != http.StatusBadRequest {
		t.Errorf("unknown op: status %d, want 400", status)
	}

	var hdr [transport.RequestHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:], transport.MaxBodyBytes+1)
	hdr[4] = byte(transport.OpChoose)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if status, _, err := transport.ReadResponseFrame(br, nil); err != nil || status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized frame: status %d, %v; want 413", status, err)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("stream still open after an oversized frame: %v", err)
	}
	if len(strat.chooseCalls) != 2 {
		t.Errorf("strategy saw %d chooses, want 2 (one per carrier)", len(strat.chooseCalls))
	}

	resp, err := http.Get(ts.URL + transport.ControlPath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUpgradeRequired {
		t.Errorf("GET without upgrade: status %d, want 426", resp.StatusCode)
	}
}

// TestControlStreamTimeouts: a stream keeps the read bounds of the server
// that accepted its upgrade. Between frames it may idle for IdleTimeout,
// longer than ReadTimeout; a frame whose header announces a body that never
// comes is cut off after ReadTimeout; a stream that sends nothing is closed
// after IdleTimeout. Each closed stream frees its goroutine (the gauge
// returns to 0), and a client whose pooled stream was closed for idling
// redials within the attempt, spending no retry.
func TestControlStreamTimeouts(t *testing.T) {
	const readTimeout, idleTimeout = 100 * time.Millisecond, time.Second
	reg := obs.NewRegistry()
	s := New(Config{Strategy: &recordingStrategy{}, Metrics: reg})
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Config.ReadTimeout, ts.Config.IdleTimeout = readTimeout, idleTimeout
	ts.Start()
	defer ts.Close()
	defer s.Close() //vialint:ignore errwrap test teardown close

	closed := func(name string, conn net.Conn, br *bufio.Reader) {
		t.Helper()
		conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //vialint:ignore errwrap a failure shows as the read below hanging up
		if _, err := br.ReadByte(); err != io.EOF {
			t.Errorf("%s: read %v, want the server to close the stream", name, err)
		}
	}
	const choose = `{"src":1,"dst":2,"candidates":[{"kind":"direct"}]}`
	c := NewClient(ts.URL)
	if _, err := c.Choose(1, 2, []netsim.Option{netsim.DirectOption()}); err != nil {
		t.Fatal(err)
	}

	idle, idleBr := rawStream(t, ts.URL)
	for i := 0; i < 2; i++ {
		if i > 0 {
			time.Sleep(2 * readTimeout)
		}
		if status, reply := exchangeRaw(t, idle, idleBr, transport.OpChoose, choose); status != http.StatusOK {
			t.Fatalf("message %d after an idle gap: %d %q", i, status, reply)
		}
	}

	stalled, stalledBr := rawStream(t, ts.URL)
	var hdr [transport.RequestHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:], transport.MaxBodyBytes)
	hdr[4] = byte(transport.OpChoose)
	if _, err := stalled.Write(append(hdr[:], `{"src":1`...)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	closed("stalled frame", stalled, stalledBr)
	if el := time.Since(start); el >= idleTimeout {
		t.Errorf("stalled frame cut off after %s, want about ReadTimeout (%s)", el, readTimeout)
	}

	closed("idle stream", idle, idleBr)
	for deadline := time.Now().Add(5 * time.Second); reg.Snapshot()["via_controller_control_streams"] != 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%v control streams still open, want 0", reg.Snapshot()["via_controller_control_streams"])
		}
	}
	if _, err := c.Choose(1, 2, []netsim.Option{netsim.DirectOption()}); err != nil {
		t.Fatalf("choose over a stream the server idled out: %v", err)
	}
	if c.Retries() != 0 {
		t.Errorf("retries = %d, want 0: the redial belongs to the attempt", c.Retries())
	}
}

// TestControlStreamSheds: admission control applies per stream message, as
// per POST: beyond MaxConcurrent + MaxWaiting, messages are answered 503
// with the shed text, and the shed counter moves.
func TestControlStreamSheds(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{
		Strategy:  &sleepStrategy{delay: 50 * time.Millisecond},
		Metrics:   reg,
		Admission: AdmissionConfig{MaxConcurrent: 1, MaxWaiting: 1, QueueTimeout: 10 * time.Millisecond},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close() //vialint:ignore errwrap test teardown close

	const streams = 6
	statuses := make([]int, streams)
	replies := make([]string, streams)
	conns := make([]net.Conn, streams)
	readers := make([]*bufio.Reader, streams)
	for i := range conns {
		conns[i], readers[i] = rawStream(t, ts.URL)
	}
	var wg sync.WaitGroup
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			frame := append(make([]byte, transport.RequestHeaderLen), `{"src":1,"dst":2,"candidates":[{"kind":"direct"}]}`...)
			transport.PutRequestHeader(frame, transport.OpChoose) //vialint:ignore errwrap a 50-byte body is within bounds
			if _, err := conns[i].Write(frame); err != nil {
				return
			}
			status, reply, _ := transport.ReadResponseFrame(readers[i], nil)
			statuses[i], replies[i] = status, string(reply)
		}(i)
	}
	wg.Wait()
	var ok, shed int
	for i, st := range statuses {
		switch {
		case st == http.StatusOK:
			ok++
		case st == http.StatusServiceUnavailable && replies[i] == msgShed:
			shed++
		default:
			t.Errorf("stream %d: status %d %q", i, st, replies[i])
		}
	}
	if ok == 0 || shed == 0 {
		t.Fatalf("%d served, %d shed; want both", ok, shed)
	}
	if n := reg.Snapshot()[`via_controller_shed_requests_total{endpoint="choose"}`]; n != float64(shed) {
		t.Errorf("shed counter = %v, want %d", n, shed)
	}
}

// TestClientSharedAcrossGoroutines: one Client used by many goroutines at
// once gives each concurrent exchange a stream of its own, loses and
// duplicates nothing, and keeps at most maxIdleStreams idle afterwards.
func TestClientSharedAcrossGoroutines(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Strategy: &sleepStrategy{}, Metrics: reg})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close() //vialint:ignore errwrap test teardown close

	c := NewClient(ts.URL)
	const workers, calls = 8, 40
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				opt, err := c.Choose(1, 2, []netsim.Option{netsim.DirectOption()})
				if err == nil {
					err = c.Report(1, 2, opt, quality.Metrics{RTTMs: 40})
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if ch, rp := s.chooses.Load(), s.reports.Load(); ch != workers*calls || rp != workers*calls {
		t.Errorf("server counted %d chooses and %d reports, want %d each", ch, rp, workers*calls)
	}
	c.streamMu.Lock()
	idle := len(c.idle[ts.URL])
	c.streamMu.Unlock()
	if idle < 1 || idle > maxIdleStreams {
		t.Errorf("%d idle streams after the burst, want 1..%d", idle, maxIdleStreams)
	}
	if open := reg.Snapshot()["via_controller_control_streams"]; open > workers {
		t.Errorf("%v streams open for %d concurrent callers", open, workers)
	}
}

// pipeRWC is a client stream's connection made of fixed response bytes;
// writes go nowhere.
type pipeRWC struct{ io.Reader }

func (pipeRWC) Write(p []byte) (int, error) { return len(p), nil }
func (pipeRWC) Close() error                { return nil }

// FuzzControlStream feeds arbitrary bytes to both frame readers in
// context: the server's stream loop (whose every message must reach the
// MessageFunc within MaxBodyBytes) and the client's response path,
// including the decode of a 200. Neither may panic.
func FuzzControlStream(f *testing.F) {
	frame := func(hdr []byte, body string) []byte { return append(append([]byte(nil), hdr...), body...) }
	for _, seed := range [][]byte{
		nil,
		frame([]byte{0, 0, 0, 2, 1}, `{}`),
		frame([]byte{0, 0, 0, 4, 0, 200}, `{"o"`),
		frame([]byte{0, 0, 0, 43, 0, 200}, `{"option":{"kind":"bounce","r1":3},"x":[]}`),
		frame([]byte{0, 0, 0, 5, 1, 0x01, 0x33}, `x`),
		{0x00, 0x10, 0x00, 0x01, 2},
		{0xff, 0xff, 0xff, 0xff, 1, 0},
		frame([]byte{0, 0, 0, 10, 2}, `{"src":1}`),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Server side: a stream whose peer sends data and hangs up.
		ss := NewStreamServer(func(_ transport.Op, body []byte, _ <-chan struct{}, dst []byte) (int, []byte) {
			if len(body) > transport.MaxBodyBytes {
				t.Fatalf("a %d-byte message reached the server", len(body))
			}
			return http.StatusOK, append(dst, body...)
		}, nil)
		peer, conn := net.Pipe()
		go func() {
			io.Copy(io.Discard, peer) //vialint:ignore errwrap drains the server's replies until the pipe closes
		}()
		go func() {
			peer.Write(data) //vialint:ignore errwrap the server may hang up before reading everything
			peer.Close()     //vialint:ignore errwrap test pipe
		}()
		ss.serveConn(conn, bufio.NewReader(conn), nil, streamTimeouts{})

		// Client side: data as the server's replies.
		rwc := pipeRWC{bytes.NewReader(data)}
		st := &ctlStream{rwc: rwc, br: bufio.NewReader(rwc)}
		st.timer = time.AfterFunc(time.Hour, func() {})
		defer st.timer.Stop()
		for {
			status, body, _, err := st.roundTrip([]byte{0, 0, 0, 0, 1}, time.Now().Add(time.Hour))
			if err != nil {
				break
			}
			if len(body) > transport.MaxBodyBytes {
				t.Fatalf("client read a %d-byte body", len(body))
			}
			if status == http.StatusOK {
				var resp transport.ChooseResponse
				resp.DecodeJSON(body) //vialint:ignore errwrap arbitrary bytes: only a panic would be a failure
			}
		}
	})
}
