package faults

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/quality"
)

// fakeTarget records every action applied to it.
type fakeTarget struct {
	mu          sync.Mutex
	log         []string
	failKill    bool
	partitioned bool
	dropRate    float64
	delay       time.Duration
}

func (f *fakeTarget) record(s string) {
	f.mu.Lock()
	f.log = append(f.log, s)
	f.mu.Unlock()
}

func (f *fakeTarget) KillRelay(id netsim.RelayID) error {
	if f.failKill {
		return errors.New("boom")
	}
	f.record(fmt.Sprintf("kill %d", id))
	return nil
}
func (f *fakeTarget) ReviveRelay(id netsim.RelayID) error {
	f.record(fmt.Sprintf("revive %d", id))
	return nil
}
func (f *fakeTarget) Blackhole(a, b Endpoint) error {
	f.record(fmt.Sprintf("blackhole %s %s", a, b))
	return nil
}
func (f *fakeTarget) Heal(a, b Endpoint) error {
	f.record(fmt.Sprintf("heal %s %s", a, b))
	return nil
}
func (f *fakeTarget) SetControlPartitioned(on bool) {
	f.mu.Lock()
	f.partitioned = on
	f.mu.Unlock()
	f.record(fmt.Sprintf("partition %v", on))
}
func (f *fakeTarget) SetControlDropRate(rate float64) {
	f.mu.Lock()
	f.dropRate = rate
	f.mu.Unlock()
	f.record(fmt.Sprintf("drop %.2f", rate))
}
func (f *fakeTarget) SetControlDelay(d time.Duration) {
	f.mu.Lock()
	f.delay = d
	f.mu.Unlock()
	f.record(fmt.Sprintf("delay %s", d))
}
func (f *fakeTarget) CrashController() error {
	f.record("crash-controller")
	return nil
}
func (f *fakeTarget) RestartController() error {
	f.record("restart-controller")
	return nil
}
func (f *fakeTarget) PromoteStandby() error {
	f.record("promote-standby")
	return nil
}
func (f *fakeTarget) SetBurstLoss(a, b Endpoint, rate, mean float64) error {
	f.record(fmt.Sprintf("burstloss %s %s %.2f %.1f", a, b, rate, mean))
	return nil
}

func (f *fakeTarget) events() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.log...)
}

func TestPlanApplyFiresInOrder(t *testing.T) {
	// Built out of order on purpose: Apply must sort by At.
	p := NewPlan(1).
		ReviveRelayAt(30*time.Millisecond, 3).
		KillRelayAt(10*time.Millisecond, 3).
		BlackholeAt(20*time.Millisecond, ClientEnd(7), RelayEnd(2))
	ft := &fakeTarget{}
	if errs := p.Apply(ft); len(errs) != 0 {
		t.Fatalf("apply errors: %v", errs)
	}
	want := []string{"kill 3", "blackhole as(7) relay(2)", "revive 3"}
	got := ft.events()
	if len(got) != len(want) {
		t.Fatalf("events = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestPlanApplyCollectsErrors(t *testing.T) {
	p := NewPlan(1).KillRelayAt(0, 1).ReviveRelayAt(0, 1)
	ft := &fakeTarget{failKill: true}
	errs := p.Apply(ft)
	if len(errs) != 1 {
		t.Fatalf("errors = %v", errs)
	}
	// The revive after the failed kill must still have fired.
	if got := ft.events(); len(got) != 1 || got[0] != "revive 1" {
		t.Errorf("events = %v", got)
	}
}

func TestFlapController(t *testing.T) {
	p := NewPlan(1).FlapController(100*time.Millisecond, 50*time.Millisecond, 30*time.Millisecond, 2)
	if len(p.Events) != 4 {
		t.Fatalf("flap events = %d", len(p.Events))
	}
	wantAt := []time.Duration{100, 150, 180, 230}
	for i, e := range p.Events {
		if e.At != wantAt[i]*time.Millisecond {
			t.Errorf("event[%d] at %s, want %s", i, e.At, wantAt[i]*time.Millisecond)
		}
	}
}

func TestSchedulerRealTime(t *testing.T) {
	p := NewPlan(1).
		KillRelayAt(10*time.Millisecond, 5).
		ReviveRelayAt(40*time.Millisecond, 5)
	ft := &fakeTarget{}
	s := NewScheduler(p, ft)
	s.Start()
	s.Wait()
	if s.Fired() != 2 {
		t.Fatalf("fired = %d", s.Fired())
	}
	got := ft.events()
	if len(got) != 2 || got[0] != "kill 5" || got[1] != "revive 5" {
		t.Errorf("events = %v", got)
	}
	if errs := s.Errors(); len(errs) != 0 {
		t.Errorf("errors = %v", errs)
	}
}

func TestSchedulerStopCancelsPending(t *testing.T) {
	p := NewPlan(1).
		KillRelayAt(0, 1).
		ReviveRelayAt(10*time.Second, 1) // far future; must be cancelled
	ft := &fakeTarget{}
	s := NewScheduler(p, ft)
	s.Start()
	time.Sleep(20 * time.Millisecond)
	s.Stop()
	if f := s.Fired(); f != 1 {
		t.Errorf("fired = %d, want 1", f)
	}
}

func TestEventStrings(t *testing.T) {
	cases := []Event{
		{Kind: KillRelay, Relay: 3},
		{Kind: Blackhole, A: ClientEnd(1), B: RelayEnd(2)},
		{Kind: PartitionController},
		{Kind: DropControl, Rate: 0.5},
		{Kind: DelayControl, Delay: time.Second},
		{Kind: CrashController},
		{Kind: RestartController},
		{Kind: PromoteStandby},
		{Kind: BurstLoss, A: ClientEnd(1), B: ClientEnd(2), Rate: 0.3, MeanBurst: 4},
	}
	for _, e := range cases {
		if e.String() == "" {
			t.Errorf("empty string for %v", e.Kind)
		}
	}
}

func TestBurstLossPlan(t *testing.T) {
	p := NewPlan(1).
		BurstLossAt(10*time.Millisecond, ClientEnd(1), ClientEnd(2), 0.25, 3).
		HealBurstLossAt(20*time.Millisecond, ClientEnd(1), ClientEnd(2))
	ft := &fakeTarget{}
	if errs := p.Apply(ft); len(errs) != 0 {
		t.Fatalf("apply errors: %v", errs)
	}
	want := []string{"burstloss as(1) as(2) 0.25 3.0", "burstloss as(1) as(2) 0.00 0.0"}
	got := ft.events()
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("events = %v, want %v", got, want)
	}
}

func TestControllerLifecyclePlan(t *testing.T) {
	p := NewPlan(1).
		RestartControllerAt(30 * time.Millisecond).
		CrashControllerAt(10 * time.Millisecond).
		PromoteStandbyAt(20 * time.Millisecond)
	ft := &fakeTarget{}
	if errs := p.Apply(ft); len(errs) != 0 {
		t.Fatalf("apply errors: %v", errs)
	}
	want := []string{"crash-controller", "promote-standby", "restart-controller"}
	got := ft.events()
	if len(got) != len(want) {
		t.Fatalf("events = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestFlakyTransportPartition(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer srv.Close()

	ft := NewFlakyTransport(nil, 1)
	cl := &http.Client{Transport: ft}

	if _, err := cl.Get(srv.URL); err != nil {
		t.Fatalf("healthy transport failed: %v", err)
	}

	ft.SetPartitioned(true)
	_, err := cl.Get(srv.URL)
	if err == nil {
		t.Fatal("partitioned request succeeded")
	}
	if !errors.Is(err, ErrInjected) {
		t.Errorf("error = %v, want ErrInjected", err)
	}
	if ft.injected.Load() != 1 {
		t.Errorf("injected = %d", ft.injected.Load())
	}

	ft.SetPartitioned(false)
	if _, err := cl.Get(srv.URL); err != nil {
		t.Errorf("healed transport failed: %v", err)
	}
}

func TestFlakyTransportDropRateDeterministic(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer srv.Close()

	count := func(seed uint64) int64 {
		ft := NewFlakyTransport(nil, seed)
		ft.SetDropRate(0.5)
		cl := &http.Client{Transport: ft}
		for i := 0; i < 60; i++ {
			resp, err := cl.Get(srv.URL)
			if err == nil {
				resp.Body.Close()
			}
		}
		return ft.injected.Load()
	}
	a, b := count(42), count(42)
	if a != b {
		t.Errorf("same seed diverged: %d vs %d", a, b)
	}
	if a == 0 || a == 60 {
		t.Errorf("drop rate 0.5 injected %d/60", a)
	}
}

func TestFlakyTransportDelay(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer srv.Close()

	ft := NewFlakyTransport(nil, 1)
	ft.SetDelay(50 * time.Millisecond)
	cl := &http.Client{Transport: ft}
	start := time.Now()
	resp, err := cl.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if el := time.Since(start); el < 45*time.Millisecond {
		t.Errorf("request took %s with 50ms injected delay", el)
	}
}

// directStrategy always answers the direct path.
type directStrategy struct{}

func (directStrategy) Name() string                                      { return "direct" }
func (directStrategy) Choose(core.Call, []netsim.Option) netsim.Option   { return netsim.DirectOption() }
func (directStrategy) Observe(core.Call, netsim.Option, quality.Metrics) {}

// TestFlakyTransportControlStream: the faults reach a control stream per
// message, not per connection. A partition fails a message on an already
// open stream fast with ErrInjected, and the redial fails too; a drop rate
// draws once per message from the seeded RNG, so the same seed drops the
// same messages; a delay holds every message, not only a stream's first.
func TestFlakyTransportControlStream(t *testing.T) {
	srv := controller.New(controller.Config{Strategy: directStrategy{}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close() //vialint:ignore errwrap test teardown close
	client := func(ft *FlakyTransport) *controller.Client {
		c := controller.NewClient(ts.URL)
		c.HTTP = &http.Client{Transport: ft, Timeout: 5 * time.Second}
		c.Retry = controller.RetryPolicy{MaxAttempts: 1, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond, Timeout: time.Second}
		c.Breaker = controller.BreakerConfig{Threshold: -1}
		return c
	}
	cands := []netsim.Option{netsim.DirectOption()}

	ft := NewFlakyTransport(nil, 1)
	c := client(ft)
	if _, err := c.Choose(1, 2, cands); err != nil {
		t.Fatalf("healthy stream: %v", err)
	}
	ft.SetPartitioned(true)
	start := time.Now()
	for _, what := range []string{"message on the open stream", "redial"} {
		if _, err := c.Choose(1, 2, cands); !errors.Is(err, ErrInjected) {
			t.Fatalf("partitioned %s: error = %v, want ErrInjected", what, err)
		}
	}
	if el := time.Since(start); el > 100*time.Millisecond {
		t.Errorf("partitioned messages took %s; should fail fast", el)
	}
	if ft.injected.Load() != 2 {
		t.Errorf("injected = %d, want 2", ft.injected.Load())
	}
	ft.SetPartitioned(false)
	if _, err := c.Choose(1, 2, cands); err != nil {
		t.Errorf("healed stream: %v", err)
	}

	count := func(seed uint64) int64 {
		ft := NewFlakyTransport(nil, seed)
		ft.SetDropRate(0.5)
		c := client(ft)
		for i := 0; i < 60; i++ {
			c.Choose(1, 2, cands) //vialint:ignore errwrap dropped messages are the point; Injected counts them
		}
		return ft.injected.Load()
	}
	a, b := count(42), count(42)
	if a != b {
		t.Errorf("same seed diverged: %d vs %d", a, b)
	}
	if a == 0 || a == 60 {
		t.Errorf("drop rate 0.5 injected %d/60", a)
	}

	ft = NewFlakyTransport(nil, 1)
	ft.SetDelay(50 * time.Millisecond)
	c = client(ft)
	for i := 0; i < 2; i++ {
		start := time.Now()
		if _, err := c.Choose(1, 2, cands); err != nil {
			t.Fatal(err)
		}
		if el := time.Since(start); el < 45*time.Millisecond {
			t.Errorf("message %d took %s with 50ms injected delay", i, el)
		}
	}
}
