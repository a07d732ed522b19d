package controller

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
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

// rawFrame is one request frame for op on the pair (src, dst).
func rawFrame(t *testing.T, op transport.Op, src, dst int32, body []byte) []byte {
	t.Helper()
	frame := append(make([]byte, transport.RequestHeaderLen), body...)
	if err := transport.PutRequestHeader(frame, op, src, dst); err != nil {
		t.Fatal(err)
	}
	return frame
}

// chooseBody and reportBody are binary request bodies.
func chooseBody(t *testing.T, cands ...netsim.Option) []byte {
	t.Helper()
	b, err := transport.AppendChoose(nil, cands, nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func reportBody(t *testing.T, opt netsim.Option, m quality.Metrics) []byte {
	t.Helper()
	b, err := transport.AppendReport(nil, opt, m, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// exchangeRaw writes one request frame and reads the response frame.
func exchangeRaw(t *testing.T, conn net.Conn, br *bufio.Reader, op transport.Op, src, dst int32, body []byte) (int, string) {
	t.Helper()
	frame := rawFrame(t, op, src, dst, body)
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
// status and the answer the POST endpoint gives the same request in JSON —
// 200 with the same decision, 400 for a bad body or an unknown op — and one
// bad message does not end the stream. A frame longer than MaxBodyBytes is
// answered 413 and ends it (its body is never read); a GET without the
// upgrade headers, or one naming via-control/1, is answered 426 naming
// via-control/2.
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
		op     transport.Op
		body   []byte // the stream's
		json   string // the POST's
		want   int
		answer string // the JSON 200 the stream's binary answer must decode to; else the shared error text, "" when the texts differ
	}{
		{transport.OpChoose, chooseBody(t, netsim.DirectOption(), netsim.TransitOption(1, 2)),
			`{"src":7,"dst":3,"candidates":[{"kind":"direct"},{"kind":"transit","r1":1,"r2":2}]}`, http.StatusOK, `{"option":{"kind":"transit","r1":1,"r2":2}}`},
		{transport.OpChoose, []byte("{nope"), `{nope`, http.StatusBadRequest, ""},
		{transport.OpReport, reportBody(t, netsim.DirectOption(), quality.Metrics{RTTMs: 50, JitterMs: 1}),
			`{"src":7,"dst":3,"option":{"kind":"direct"},"metrics":{"rtt_ms":50,"loss_rate":0,"jitter_ms":1}}`, http.StatusOK, `{"ok":true}`},
		{transport.OpReport, reportBody(t, netsim.DirectOption(), quality.Metrics{RTTMs: -5, JitterMs: 1}),
			`{"src":7,"dst":3,"option":{"kind":"direct"},"metrics":{"rtt_ms":-5,"loss_rate":0,"jitter_ms":1}}`, http.StatusBadRequest, "invalid metrics"},
	} {
		status, reply := exchangeRaw(t, conn, br, m.op, 7, 3, m.body)
		pstatus, preply := post(m.op.Path(), m.json)
		if status != m.want || pstatus != m.want {
			t.Errorf("%s %s: stream answered %d %q, POST %d %q; want %d from both", m.op.Path(), m.json, status, reply, pstatus, preply, m.want)
			continue
		}
		switch {
		case status == http.StatusOK && m.op == transport.OpChoose:
			var d transport.Decision
			err := d.DecodeBinary([]byte(reply))
			got, _ := json.Marshal(transport.ChooseResponse{Option: transport.ToWireOption(d.Option), Repair: d.Repair})
			if err != nil || string(got)+"\n" != preply || preply != m.answer+"\n" {
				t.Errorf("choose: stream decided %+v (%v), POST answered %q; want both %s", d, err, preply, m.answer)
			}
		case status == http.StatusOK:
			if reply != "" || preply != m.answer+"\n" {
				t.Errorf("report: stream answered %q, POST %q; want nothing and %s", reply, preply, m.answer)
			}
		case m.answer != "":
			if reply != m.answer || preply != m.answer+"\n" {
				t.Errorf("%s: stream answered %q, POST %q; want %q from both", m.op.Path(), reply, preply, m.answer)
			}
		default:
			if !strings.HasPrefix(reply, "bad request: ") || !strings.HasPrefix(preply, "bad request: ") {
				t.Errorf("%s malformed: stream answered %q, POST %q; want a bad request from both", m.op.Path(), reply, preply)
			}
		}
	}
	if status, _ := exchangeRaw(t, conn, br, 9, 7, 3, nil); status != http.StatusBadRequest {
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

	for _, upgrade := range []string{"", "via-control/1"} {
		req, err := http.NewRequest(http.MethodGet, ts.URL+transport.ControlPath, nil)
		if err != nil {
			t.Fatal(err)
		}
		if upgrade != "" {
			req.Header.Set("Connection", "Upgrade")
			req.Header.Set("Upgrade", upgrade)
		}
		resp, err := http.DefaultTransport.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUpgradeRequired || resp.Header.Get("Upgrade") != "via-control/2" {
			t.Errorf("GET with Upgrade %q: status %d, Upgrade %q; want 426 naming via-control/2", upgrade, resp.StatusCode, resp.Header.Get("Upgrade"))
		}
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
	choose := chooseBody(t, netsim.DirectOption())
	c := NewClient(ts.URL)
	if _, err := c.Choose(1, 2, []netsim.Option{netsim.DirectOption()}); err != nil {
		t.Fatal(err)
	}

	idle, idleBr := rawStream(t, ts.URL)
	for i := 0; i < 2; i++ {
		if i > 0 {
			time.Sleep(2 * readTimeout)
		}
		if status, reply := exchangeRaw(t, idle, idleBr, transport.OpChoose, 1, 2, choose); status != http.StatusOK {
			t.Fatalf("message %d after an idle gap: %d %q", i, status, reply)
		}
	}

	stalled, stalledBr := rawStream(t, ts.URL)
	var hdr [transport.RequestHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:], transport.MaxBodyBytes)
	hdr[4] = byte(transport.OpChoose)
	if _, err := stalled.Write(append(hdr[:], choose[:3]...)); err != nil {
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
	frame := rawFrame(t, transport.OpChoose, 1, 2, chooseBody(t, netsim.DirectOption()))
	var wg sync.WaitGroup
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
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
// MessageFunc within MaxBodyBytes, with the pair its 13-byte header
// carries) and the client's response path, including the binary decode of
// a 200. Neither may panic.
func FuzzControlStream(f *testing.F) {
	frame := func(hdr []byte, body string) []byte { return append(append([]byte(nil), hdr...), body...) }
	for _, seed := range [][]byte{
		nil,
		frame([]byte{0, 0, 0, 3, 1, 0, 0, 0, 7, 0, 0, 0, 3}, "\x00\x00\x00"),
		frame([]byte{0, 0, 0, 4, 0, 200}, "\x01\x00\x00"),
		frame([]byte{0, 0, 0, 10, 0, 200}, "\x01\x00\x00\x00\x03\xff\xff\xff\xff\x00"),
		frame([]byte{0, 0, 0, 13, 1, 0xff, 0xff, 0xff, 0xff, 0x80, 0, 0, 0}, "\x00\x01\x02\x00\x00\x00\x01\x00\x00\x00\x02\x01\x04fec-4"),
		frame([]byte{0, 0, 0, 5, 1, 0x01, 0x33}, `x`),
		{0x00, 0x10, 0x00, 0x01, 2, 0, 0, 0, 1, 0, 0, 0, 2},
		{0xff, 0xff, 0xff, 0xff, 1, 0},
		frame([]byte{0, 0, 0, 42, 2, 0, 0, 0, 1, 0, 0, 0, 2}, "\x00\xff\xff\xff\xff\xff\xff\xff\xff"),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Server side: a stream whose peer sends data and hangs up. Each
		// message is answered with its pair and body, so a pair the reader
		// got wrong would show in the reply (the peer discards it).
		ss := NewStreamServer(func(_ transport.Op, src, dst int32, body []byte, _ <-chan struct{}, out []byte) (int, []byte) {
			if len(body) > transport.MaxBodyBytes {
				t.Fatalf("a %d-byte message reached the server", len(body))
			}
			out = binary.BigEndian.AppendUint32(out, uint32(src))
			out = binary.BigEndian.AppendUint32(out, uint32(dst))
			return http.StatusOK, append(out, body...)
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
		req := make([]byte, transport.RequestHeaderLen)
		if err := transport.PutRequestHeader(req, transport.OpChoose, 1, 2); err != nil {
			t.Fatal(err)
		}
		for {
			status, body, _, err := st.roundTrip(req, time.Now().Add(time.Hour))
			if err != nil {
				break
			}
			if len(body) > transport.MaxBodyBytes {
				t.Fatalf("client read a %d-byte body", len(body))
			}
			if status == http.StatusOK {
				var d transport.Decision
				d.DecodeBinary(body) //vialint:ignore errwrap arbitrary bytes: only a panic would be a failure
			}
		}
	})
}
