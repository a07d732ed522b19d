package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/quality"
)

// stubController answers every decision with one fixed option and counts
// the decisions and reports that reach it.
type stubController struct {
	opt               netsim.Option
	chooses, observes int
}

func (s *stubController) Name() string { return "stub" }
func (s *stubController) Choose(core.Call, []netsim.Option) netsim.Option {
	s.chooses++
	return s.opt
}
func (s *stubController) Observe(core.Call, netsim.Option, quality.Metrics) { s.observes++ }

// TestClientCache drives the client-side TTL table the goldens replay
// through call sequences whose effect the golden numbers cannot isolate.
func TestClientCache(t *testing.T) {
	type step struct {
		src, dst netsim.ASID
		tHours   float64
		observe  bool          // report instead of decide
		want     netsim.Option // decided option (decide steps only)
	}
	direct, transit := netsim.DirectOption(), netsim.TransitOption(1, 2)
	for _, tc := range []struct {
		name                      string
		opt                       netsim.Option
		steps                     []step
		wantChooses, wantObserves int
	}{
		{
			name:        "hit inside TTL",
			opt:         direct,
			steps:       []step{{src: 1, dst: 2, tHours: 0, want: direct}, {src: 1, dst: 2, tHours: 1.9, want: direct}},
			wantChooses: 1,
		},
		{
			name:        "miss at expiry",
			opt:         direct,
			steps:       []step{{src: 1, dst: 2, tHours: 0, want: direct}, {src: 1, dst: 2, tHours: 2, want: direct}},
			wantChooses: 2,
		},
		{
			name:        "transit flips for reverse direction",
			opt:         transit,
			steps:       []step{{src: 1, dst: 9, tHours: 0, want: transit}, {src: 9, dst: 1, tHours: 1, want: netsim.TransitOption(2, 1)}},
			wantChooses: 1,
		},
		{
			name: "observe reaches controller and keeps entry",
			opt:  direct,
			steps: []step{
				{src: 1, dst: 2, tHours: 0, want: direct},
				{src: 1, dst: 2, tHours: 0.5, observe: true},
				{src: 2, dst: 1, tHours: 1, want: direct},
			},
			wantChooses: 1, wantObserves: 1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctl := &stubController{opt: tc.opt}
			c := newClientCache(ctl, 2)
			for i, s := range tc.steps {
				call := core.Call{Src: s.src, Dst: s.dst, THours: s.tHours}
				if s.observe {
					c.Observe(call, direct, quality.Metrics{RTTMs: 80})
					continue
				}
				if got := c.Choose(call, []netsim.Option{direct, transit}); got != s.want {
					t.Errorf("step %d: %d->%d at %vh = %v, want %v", i, s.src, s.dst, s.tHours, got, s.want)
				}
			}
			if ctl.chooses != tc.wantChooses || ctl.observes != tc.wantObserves {
				t.Errorf("controller saw %d decisions and %d reports, want %d and %d",
					ctl.chooses, ctl.observes, tc.wantChooses, tc.wantObserves)
			}
			if got, want := c.hits+c.misses, len(tc.steps)-tc.wantObserves; got != want {
				t.Errorf("hits+misses = %d, want %d", got, want)
			}
		})
	}
}
