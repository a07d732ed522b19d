package ring

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/transport"
)

// FuzzPeekPair holds peekPair to the codec contract (transport/
// jsoncodec.go): on arbitrary bytes, the pair and the verdict of
// json.Unmarshal into pairHeader.
func FuzzPeekPair(f *testing.F) {
	for _, s := range []string{
		`{"src":17,"dst":4,"candidates":[{"kind":"direct"},{"kind":"bounce","r1":3},{"kind":"transit","r1":3,"r2":11}]}`,
		`{"src":17,"dst":4,"option":{"kind":"bounce","r1":3},"metrics":{"rtt_ms":83.4,"loss_rate":1e-7,"jitter_ms":4.5},"repair":"nack"}`,
		"{ \"candidates\" : [ ] ,\n\t\"dst\" : -4 , \"src\" : 2147483647 }", `{"candidates":"anything","src":1,"dst":2,"x":[true,false,{"y":-1.5e+3}]}`,
		`{"src":1,"dst":2,"x":null}`, `{"src":1,"dst":2,"x":"A"}`, "{\"src\":1,\"dst\":2,\"x\":\"\xff\"}",
		`{"SRC":1,"Dst":2}`, `{"src":1,"SRC":2}`, "{\"\u017frc\":1}", `{"src":1,"src":2}`, `{"src":1.0}`, `{"src":2147483648}`, `{"src":"1"}`, `{"src":null}`,
		`{"src":1,"dst":2}{}`, `{"src":1,"dst":2} x`, `{"src":1,"dst":2,"x":[1,]}`, `{"src":1,"dst":2,"x":{"a":1,}}`, `{"src":1,"dst":2,"x":tru}`,
		`{"x":` + strings.Repeat("[", 40) + strings.Repeat("]", 40) + `,"src":5}`, `null`, `{}`, `[]`, ``, `{"src":01}`, `{"x":1e400}`, `{"x":-}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want pairHeader
		wantErr := json.Unmarshal(data, &want)
		src, dst, err := peekPair(data)
		if (wantErr == nil) != (err == nil) || src != want.Src || dst != want.Dst {
			t.Fatalf("peekPair(%q) = %d, %d, %v; json.Unmarshal gave %+v, %v", data, src, dst, err, want, wantErr)
		}
	})
}

func TestPeekPairAllocs(t *testing.T) {
	body := chooseBody(17, 4)
	if got := testing.AllocsPerRun(200, func() {
		if src, dst, err := peekPair(body); err != nil || src != 17 || dst != 4 {
			t.Fatal(src, dst, err)
		}
	}); got != 0 {
		t.Errorf("peekPair: %v allocs, want 0", got)
	}
}

// TestGateRejectsOversizedBody: the gate and the router read a body under
// the controller's own bound, transport.MaxBodyBytes, and answer 413
// beyond it instead of routing on a truncated prefix.
func TestGateRejectsOversizedBody(t *testing.T) {
	m, err := NewMap(0, Shard{ID: 0, URL: "http://s0"})
	if err != nil {
		t.Fatal(err)
	}
	inner := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		t.Error("an oversized request reached the shard")
	})
	big := `{"src":1,"dst":2,"candidates":[` + strings.Repeat(`{"kind":"direct"},`, (2<<20)/18) + `{"kind":"direct"}]}`
	for name, h := range map[string]http.Handler{"gate": NewGate(0, inner, m, nil), "router": NewRouter(m, nil).Handler()} {
		for _, chunked := range []bool{false, true} {
			r := httptest.NewRequest(http.MethodPost, "/v1/choose", strings.NewReader(big))
			if chunked {
				r.ContentLength = -1
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Errorf("%s, 2 MiB, chunked=%v: status %d, want 413", name, chunked, rec.Code)
			}
		}
	}
}

// TestOlderClientThroughGate: a choose marshalled by plain encoding/json
// with sorted keys and indentation (an older client), sent to a shard that
// does not own the pair, is redirected and then served exactly as the
// current client's bytes are. Each body gets a fleet of its own, frozen at
// the same instant, so the two decisions are the same decision.
func TestOlderClientThroughGate(t *testing.T) {
	req := transport.ChooseRequest{Src: 0, Dst: 1}
	for _, o := range []netsim.Option{netsim.DirectOption(), netsim.BounceOption(1), netsim.TransitOption(1, 2)} {
		req.Candidates = append(req.Candidates, transport.ToWireOption(o))
	}
	serve := func(encode func(transport.ChooseRequest) []byte) string {
		fleet, err := NewFleet(FleetConfig{
			Shards:      2,
			WALRoot:     t.TempDir(),
			NewStrategy: func() core.Strategy { return core.NewVia(soakViaConfig(3), nil) },
			Clock:       constClock(),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer fleet.Close()
		m := fleet.Map()
		req.Src, req.Dst = pairOwnedBy(t, m, 1)
		body := encode(req)
		noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
		resp, err := noFollow.Post(m.Shards[0].URL+"/v1/choose", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		loc := resp.Header.Get("Location")
		if resp.StatusCode != http.StatusTemporaryRedirect || loc != m.Shards[1].URL+"/v1/choose" {
			t.Fatalf("non-owner answered %d, Location %q; want 307 to %s", resp.StatusCode, loc, m.Shards[1].URL)
		}
		resp, err = noFollow.Post(loc, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("owner answered %d, %v: %s", resp.StatusCode, err, out)
		}
		return string(out)
	}
	cur := serve(func(r transport.ChooseRequest) []byte {
		body, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return body
	})
	old := serve(func(r transport.ChooseRequest) []byte {
		var fields map[string]any
		body, err := json.Marshal(r)
		if err == nil {
			err = json.Unmarshal(body, &fields)
		}
		if err != nil {
			t.Fatal(err)
		}
		body, err = json.MarshalIndent(fields, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return body
	})
	var decision transport.ChooseResponse
	if err := json.Unmarshal([]byte(cur), &decision); err != nil || decision.Option.Kind == "" {
		t.Fatalf("current client got %q: %v", cur, err)
	}
	if old != cur {
		t.Errorf("older client got %q, current client %q", old, cur)
	}
}
