package ring

import (
	"bytes"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/transport"
)

// TestRouterRedirectsEveryPair: the router serves no pair. A choose or
// report sent to it, by POST or on a control stream, is answered 307
// naming the owning shard, and the router contacts no shard to answer it:
// the map's shards are listeners that count every connection and serve
// none.
func TestRouterRedirectsEveryPair(t *testing.T) {
	var dialled atomic.Int64
	shards := make([]Shard, 2)
	for i := range shards {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				dialled.Add(1)
				c.Close()
			}
		}()
		shards[i] = Shard{ID: i, URL: "http://" + ln.Addr().String()}
	}
	m, err := NewMap(0, shards...)
	if err != nil {
		t.Fatal(err)
	}
	router := NewRouter(m, nil)
	defer router.Close()
	ts := httptest.NewServer(router.Handler())
	defer ts.Close()

	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
	for _, owner := range shards {
		src, dst := pairOwnedBy(t, m, owner.ID)
		for _, path := range []string{"/v1/choose", "/v1/report"} {
			resp, err := noFollow.Post(ts.URL+path, "application/json", bytes.NewReader(chooseBody(src, dst)))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			loc, epoch := resp.Header.Get("Location"), resp.Header.Get("X-Via-Ring-Epoch")
			if resp.StatusCode != http.StatusTemporaryRedirect || loc != owner.URL+path || epoch != "1" {
				t.Errorf("POST %s for shard %d's pair: %d, Location %q, epoch %q; want 307 to %s at epoch 1",
					path, owner.ID, resp.StatusCode, loc, epoch, owner.URL+path)
			}
		}
	}

	stream := dialControl(t, ts.URL)
	for _, owner := range shards {
		src, dst := pairOwnedBy(t, m, owner.ID)
		for _, op := range []transport.Op{transport.OpChoose, transport.OpReport} {
			status, body := stream.exchange(t, op, src, dst, []byte("\x00\x00\x00"))
			if status != http.StatusTemporaryRedirect || string(body) != owner.URL {
				t.Errorf("stream %s for shard %d's pair: %d %q, want 307 %q", op.Path(), owner.ID, status, body, owner.URL)
			}
		}
	}
	if n := dialled.Load(); n != 0 {
		t.Errorf("the router opened %d connections to shards to answer pair traffic, want 0", n)
	}
}

// TestNewClientBootstrapsMap: NewClient on the router's URL or on any
// shard's fetches the map there and sends choose and report straight to
// the pair's owner, with no redirect; on a plain controller (which serves
// no map) it is an unsharded client; on a dead URL it fails.
func TestNewClientBootstrapsMap(t *testing.T) {
	work := newSoakWorkload(SoakConfig{Pairs: 8, ZipfS: 1.1, Relays: 3})
	fleet, err := NewFleet(FleetConfig{
		Shards:      2,
		WALRoot:     t.TempDir(),
		NewStrategy: func() core.Strategy { return core.NewVia(soakViaConfig(5), nil) },
		Clock:       constClock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	m := fleet.Map()
	src, dst := pairOwnedBy(t, m, 1)
	cands := work.opts[0]

	for i, base := range []string{fleet.RouterURL(), m.Shards[0].URL, m.Shards[1].URL} {
		c, err := NewClient(base)
		if err != nil {
			t.Fatalf("NewClient(%s): %v", base, err)
		}
		opt, err := c.Choose(src, dst, cands)
		if err != nil {
			t.Fatalf("choose from %s: %v", base, err)
		}
		if err := c.Report(src, dst, opt, work.measure(0, opt)); err != nil {
			t.Fatalf("report from %s: %v", base, err)
		}
		if got := c.Redirects(); got != 0 {
			t.Errorf("client on %s followed %d redirects, want 0", base, got)
		}
		if d := fleet.ShardDecisions(); d[0] != 0 || d[1] != int64(i+1) {
			t.Errorf("after the client on %s: shard decisions %v, want all %d on the owner", base, d, i+1)
		}
		for _, s := range m.Shards {
			st, err := controller.NewClient(s.URL).Stats()
			if err != nil {
				t.Fatal(err)
			}
			if want := int64(i + 1); s.ID == 1 && st.Reports != want || s.ID == 0 && st.Reports != 0 {
				t.Errorf("after the client on %s: shard %d holds %d reports", base, s.ID, st.Reports)
			}
		}
	}

	plain := controller.New(controller.Config{Strategy: core.NewVia(soakViaConfig(5), nil), Clock: constClock()})
	ts := httptest.NewServer(plain.Handler())
	defer ts.Close()
	c, err := NewClient(ts.URL)
	if err != nil {
		t.Fatalf("NewClient on a plain controller: %v", err)
	}
	opt, err := c.Choose(src, dst, cands)
	if err != nil {
		t.Fatalf("choose on a plain controller: %v", err)
	}
	if err := c.Report(src, dst, opt, work.measure(0, opt)); err != nil {
		t.Fatalf("report on a plain controller: %v", err)
	}
	if st, err := c.Stats(); err != nil || st.Chooses != 1 || st.Reports != 1 {
		t.Errorf("plain controller stats %+v, %v; want 1 choose and 1 report", st, err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + ln.Addr().String()
	ln.Close()
	if _, err := NewClient(dead); err == nil {
		t.Error("NewClient on a dead URL returned a client, want an error")
	}
}
