package ring

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/transport"
)

// pairOwnedBy finds a (src, src+1) pair the given shard owns.
func pairOwnedBy(t *testing.T, m *Map, shardID int) (int32, int32) {
	t.Helper()
	for src := int32(0); src < 100_000; src += 2 {
		if m.OwnerShard(src, src+1).ID == shardID {
			return src, src + 1
		}
	}
	t.Fatalf("no pair owned by shard %d in probe range", shardID)
	return 0, 0
}

func chooseBody(src, dst int32) []byte {
	return []byte(fmt.Sprintf(`{"src":%d,"dst":%d,"candidates":[]}`, src, dst))
}

func TestGateRedirectsForeignPairs(t *testing.T) {
	m, err := NewMap(0, Shard{ID: 0, URL: "http://s0"}, Shard{ID: 1, URL: "http://s1"})
	if err != nil {
		t.Fatal(err)
	}
	var innerHits int
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		innerHits++
		if r.Method == http.MethodPost {
			// The gate must restore the body it peeked at.
			body, _ := io.ReadAll(r.Body)
			var hdr pairHeader
			if err := json.Unmarshal(body, &hdr); err != nil {
				t.Errorf("inner handler got unreadable body: %v", err)
			}
		}
		w.WriteHeader(http.StatusOK)
	})
	gate := NewGate(0, inner, m, nil)

	// Foreign pair → 307 with the owner's URL and the map epoch.
	src, dst := pairOwnedBy(t, m, 1)
	rec := httptest.NewRecorder()
	gate.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/choose", bytes.NewReader(chooseBody(src, dst))))
	if rec.Code != http.StatusTemporaryRedirect {
		t.Fatalf("foreign pair: status %d, want 307", rec.Code)
	}
	if loc := rec.Header().Get("Location"); loc != "http://s1/v1/choose" {
		t.Fatalf("Location = %q, want owner URL", loc)
	}
	if ep := rec.Header().Get("X-Via-Ring-Epoch"); ep != "1" {
		t.Fatalf("X-Via-Ring-Epoch = %q, want 1", ep)
	}
	if innerHits != 0 {
		t.Fatal("foreign pair reached the inner handler")
	}

	// Owned pair → passes through with a readable body.
	src, dst = pairOwnedBy(t, m, 0)
	rec = httptest.NewRecorder()
	gate.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/report", bytes.NewReader(chooseBody(src, dst))))
	if rec.Code != http.StatusOK || innerHits != 1 {
		t.Fatalf("owned pair: status %d innerHits %d, want 200/1", rec.Code, innerHits)
	}

	// Non-pair routes pass through untouched.
	rec = httptest.NewRecorder()
	gate.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/health", nil))
	if innerHits != 2 {
		t.Fatal("GET /v1/health did not reach the inner handler")
	}
}

// controlStream is a raw control stream, upgraded by hand as any client
// could.
type controlStream struct {
	conn net.Conn
	br   *bufio.Reader
}

func dialControl(t *testing.T, base string) controlStream {
	t.Helper()
	conn, err := net.Dial("tcp", base[len("http://"):])
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	req, err := http.NewRequest(http.MethodGet, base+transport.ControlPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", transport.ControlProtocol)
	if err := req.Write(conn); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, req)
	if err != nil || resp.StatusCode != http.StatusSwitchingProtocols {
		t.Fatalf("control upgrade on %s: %v, %v", base, resp, err)
	}
	return controlStream{conn, br}
}

// exchange sends one message for (src, dst) and reads its answer.
func (cs controlStream) exchange(t *testing.T, op transport.Op, src, dst int32, body []byte) (int, []byte) {
	t.Helper()
	frame := append(make([]byte, transport.RequestHeaderLen), body...)
	if err := transport.PutRequestHeader(frame, op, src, dst); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	status, reply, err := transport.ReadResponseFrame(cs.br, nil)
	if err != nil {
		t.Fatal(err)
	}
	return status, reply
}

// TestGateRoutesStreamOnHeader: on a control stream the gate routes by
// the pair in the frame header alone. A foreign pair is answered 307 with
// the owner's URL whatever the body holds, garbage included, and reaches
// no strategy; an owned pair with a garbage body reaches the shard, which
// answers 400, and the stream carries on to serve a well-formed message.
func TestGateRoutesStreamOnHeader(t *testing.T) {
	m, err := NewMap(0, Shard{ID: 0, URL: "http://s0"}, Shard{ID: 1, URL: "http://s1"})
	if err != nil {
		t.Fatal(err)
	}
	srv := controller.New(controller.Config{Strategy: core.NewVia(soakViaConfig(5), nil), Clock: constClock()})
	defer srv.Close() //vialint:ignore errwrap test teardown close
	gate := NewGate(0, srv.Handler(), m, nil)
	ts := httptest.NewServer(gate)
	defer ts.Close()
	stream := dialControl(t, ts.URL)

	garbage := []byte("{not a binary body")
	src, dst := pairOwnedBy(t, m, 1)
	for _, op := range []transport.Op{transport.OpChoose, transport.OpReport} {
		if status, body := stream.exchange(t, op, src, dst, garbage); status != http.StatusTemporaryRedirect || string(body) != "http://s1" {
			t.Errorf("%s for a foreign pair with a garbage body: %d %q, want 307 \"http://s1\"", op.Path(), status, body)
		}
	}
	src, dst = pairOwnedBy(t, m, 0)
	for _, op := range []transport.Op{transport.OpChoose, transport.OpReport} {
		if status, body := stream.exchange(t, op, src, dst, garbage); status != http.StatusBadRequest {
			t.Errorf("%s for an owned pair with a garbage body: %d %q, want 400", op.Path(), status, body)
		}
	}
	body, err := transport.AppendChoose(nil, []netsim.Option{netsim.DirectOption()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if status, reply := stream.exchange(t, transport.OpChoose, src, dst, body); status != http.StatusOK {
		t.Errorf("owned choose after the bad ones: %d %q, want 200", status, reply)
	}
	if gate.Decisions() != 2 {
		t.Errorf("gate counted %d decisions, want 2 (the owned chooses)", gate.Decisions())
	}
	if st, err := controller.NewClient(ts.URL).Stats(); err != nil || st.Chooses != 1 || st.Reports != 0 {
		t.Errorf("shard stats %+v, %v; want the one well-formed choose", st, err)
	}
}

func TestGateMapInstallProtocol(t *testing.T) {
	m, err := NewMap(0, Shard{ID: 0, URL: "http://s0"})
	if err != nil {
		t.Fatal(err)
	}
	gate := NewGate(0, http.NotFoundHandler(), m, nil)

	// GET serves the current map.
	rec := httptest.NewRecorder()
	gate.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/ring/map", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET map: status %d", rec.Code)
	}
	got, err := DecodeMap(rec.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.MapEpoch != 1 {
		t.Fatalf("served epoch %d, want 1", got.MapEpoch)
	}

	// POST with a newer epoch installs.
	next, err := m.WithShardAdded(Shard{ID: 1, URL: "http://s1"})
	if err != nil {
		t.Fatal(err)
	}
	data, err := next.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	gate.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ring/map", bytes.NewReader(data)))
	if rec.Code != http.StatusNoContent {
		t.Fatalf("POST newer map: status %d, want 204", rec.Code)
	}
	if gate.Current().MapEpoch != 2 {
		t.Fatalf("installed epoch %d, want 2", gate.Current().MapEpoch)
	}

	// Re-POSTing the same epoch is a conflict: installs are monotone.
	rec = httptest.NewRecorder()
	gate.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ring/map", bytes.NewReader(data)))
	if rec.Code != http.StatusConflict {
		t.Fatalf("POST stale map: status %d, want 409", rec.Code)
	}
}
