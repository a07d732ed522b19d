package netsim

import (
	"fmt"
	"sort"
)

// OptionKind distinguishes the three relaying-path shapes of §3.1.
type OptionKind uint8

const (
	// Direct is the default BGP-derived path between caller and callee.
	Direct OptionKind = iota
	// Bounce routes the call off a single relay node.
	Bounce
	// Transit routes the call through an ingress and an egress relay,
	// traversing the private backbone between them.
	Transit
)

// String returns the kind's name.
func (k OptionKind) String() string {
	switch k {
	case Direct:
		return "direct"
	case Bounce:
		return "bounce"
	case Transit:
		return "transit"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Option is a relaying option: the unit Via's selection algorithm chooses
// among. It is comparable and compact, usable as a map key.
type Option struct {
	Kind   OptionKind
	R1, R2 RelayID // Bounce: R1; Transit: R1=ingress, R2=egress; Direct: both -1
}

// DirectOption is the default-path option.
func DirectOption() Option { return Option{Kind: Direct, R1: -1, R2: -1} }

// BounceOption relays via a single node.
func BounceOption(r RelayID) Option { return Option{Kind: Bounce, R1: r, R2: -1} }

// TransitOption relays via an ingress/egress pair. A degenerate pair with
// ingress == egress is a bounce.
func TransitOption(in, out RelayID) Option {
	if in == out {
		return BounceOption(in)
	}
	return Option{Kind: Transit, R1: in, R2: out}
}

// IsRelayed reports whether the option uses the managed overlay.
func (o Option) IsRelayed() bool { return o.Kind != Direct }

// String renders the option compactly, e.g. "direct", "bounce(3)",
// "transit(3->7)".
func (o Option) String() string {
	switch o.Kind {
	case Direct:
		return "direct"
	case Bounce:
		return fmt.Sprintf("bounce(%d)", o.R1)
	case Transit:
		return fmt.Sprintf("transit(%d->%d)", o.R1, o.R2)
	default:
		return fmt.Sprintf("option(%d,%d,%d)", o.Kind, o.R1, o.R2)
	}
}

// Options returns the candidate relaying options for a call from src to dst:
// the direct path, bounce options off relays near either endpoint, and
// transit options crossing the TransitFan relays nearest the caller with
// those nearest the callee. The slice is deterministic and sorted, and
// typically has ~15-25 entries with the default configuration — mirroring
// the paper's 9-20 option regime.
func (w *World) Options(src, dst ASID) []Option {
	seen := map[Option]bool{}
	var out []Option
	add := func(o Option) {
		if !seen[o] {
			seen[o] = true
			out = append(out, o)
		}
	}
	add(DirectOption())
	for _, r := range w.NearestRelays(src, w.cfg.BounceCandidates) {
		add(BounceOption(r))
	}
	for _, r := range w.NearestRelays(dst, w.cfg.BounceCandidates) {
		add(BounceOption(r))
	}
	ins := w.NearestRelays(src, w.cfg.TransitFan)
	outs := w.NearestRelays(dst, w.cfg.TransitFan)
	for _, in := range ins {
		for _, eg := range outs {
			add(TransitOption(in, eg))
		}
	}
	sort.Slice(out, func(i, j int) bool { return optionLess(out[i], out[j]) })
	return out
}

func optionLess(a, b Option) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.R1 != b.R1 {
		return a.R1 < b.R1
	}
	return a.R2 < b.R2
}
