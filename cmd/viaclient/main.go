// Command viaclient runs a Via call agent. In serve mode it answers calls
// (measuring loss/jitter and feeding reports back); in call mode it places
// a call to a peer through a relaying option — chosen by the controller
// with -option auto — measures RTT/loss/jitter, and reports the result.
//
// Usage:
//
//	viaclient -group 7 serve
//	viaclient -group 7 -controller http://ctrl:8080 \
//	    call -peer 10.0.0.2:9000 -peer-group 12 -option auto -duration 5s
//
// -controller takes a plain controller's URL, or any ring router or shard
// URL: the agent then fetches the shard map and sends each decision and
// report straight to the pair's owning shard.
//
// Option syntax: auto | direct | bounce:R | transit:R1:R2.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"strconv"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/controller"
	"repro/internal/netsim"
	"repro/internal/ring"
	"repro/internal/rtp"
)

func main() {
	group := flag.Int("group", 0, "this client's group (AS) id")
	addr := flag.String("addr", "127.0.0.1:0", "UDP listen address")
	ctrl := flag.String("controller", "", "controller, ring router or ring shard base URL")
	peer := flag.String("peer", "", "peer media address (call mode)")
	peerGroup := flag.Int("peer-group", 0, "peer's group id (call mode)")
	option := flag.String("option", "auto", "auto | direct | bounce:R | transit:R1:R2")
	repair := flag.String("repair", "none",
		"loss-repair scheme: none | nack | red | fec-K | auto (controller's bandit picks)")
	duration := flag.Duration("duration", 3*time.Second, "call length")
	pps := flag.Int("pps", 50, "media packets per second")
	seed := flag.Uint64("seed", uint64(time.Now().UnixNano()), "agent seed")
	flag.Parse()

	mode := flag.Arg(0)
	if mode != "serve" && mode != "call" {
		log.Fatal("usage: viaclient [flags] serve|call")
	}

	conn, err := net.ListenPacket("udp", *addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	agent := client.New(int32(*group), conn, *seed)
	defer agent.Close()
	fmt.Printf("client group %d on %s\n", *group, agent.Addr())

	var cc *controller.Client
	if *ctrl != "" {
		if cc, err = ring.NewClient(*ctrl); err != nil {
			log.Fatalf("controller: %v", err)
		}
		dir, err := cc.Relays()
		if err != nil {
			log.Fatalf("fetch relays: %v", err)
		}
		if err := agent.SetRelays(dir); err != nil {
			log.Fatalf("relay directory: %v", err)
		}
		fmt.Printf("loaded %d relays from %s\n", len(dir), *ctrl)
	}

	if mode == "serve" {
		fmt.Println("serving; ctrl-c to stop")
		select {}
	}

	// Call mode.
	if *peer == "" {
		log.Fatal("call mode requires -peer")
	}
	peerAddr, err := net.ResolveUDPAddr("udp", *peer)
	if err != nil {
		log.Fatalf("peer: %v", err)
	}
	opt, err := parseOption(*option, cc, int32(*group), int32(*peerGroup))
	if err != nil {
		log.Fatal(err)
	}
	// Repair scheme: explicit name, or let the controller's per-pair repair
	// bandit pick one for the chosen path.
	schemeName := *repair
	if schemeName == "auto" {
		if cc == nil {
			log.Fatal("-repair auto requires -controller")
		}
		opt, schemeName, err = cc.ChooseWithRepair(int32(*group), int32(*peerGroup),
			[]netsim.Option{opt}, []string{"none", "nack", "red", "fec-4"})
		if err != nil {
			log.Fatalf("choose repair: %v", err)
		}
	}
	scheme, err := rtp.ParseScheme(schemeName)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("calling %s via %v (repair %v) for %v...\n", *peer, opt, scheme, *duration)
	m, err := agent.Call(client.CallSpec{
		Peer:     peerAddr,
		Option:   opt,
		Duration: *duration,
		PPS:      *pps,
		Repair:   scheme,
	})
	if err != nil {
		log.Fatalf("call: %v", err)
	}
	fmt.Printf("measured: rtt=%.1fms loss=%.2f%% jitter=%.2fms\n",
		m.RTTMs, 100*m.LossRate, m.JitterMs)
	if cc != nil {
		var rerr error
		if scheme == rtp.SchemeNone {
			rerr = cc.Report(int32(*group), int32(*peerGroup), opt, m)
		} else {
			rerr = cc.ReportRepair(int32(*group), int32(*peerGroup), opt,
				scheme.String(), duration.Seconds(), m)
		}
		if rerr != nil {
			log.Fatalf("report: %v", rerr)
		}
		fmt.Println("reported to controller")
	}
}

// parseOption resolves the -option flag, consulting the controller for
// "auto".
func parseOption(s string, cc *controller.Client, src, dst int32) (netsim.Option, error) {
	switch {
	case s == "direct":
		return netsim.DirectOption(), nil
	case s == "auto":
		if cc == nil {
			return netsim.DirectOption(), fmt.Errorf("-option auto requires -controller")
		}
		dir, err := cc.Relays()
		if err != nil {
			return netsim.DirectOption(), err
		}
		cands := []netsim.Option{netsim.DirectOption()}
		ids := make([]netsim.RelayID, 0, len(dir))
		for id := range dir {
			ids = append(ids, id)
		}
		for _, id := range ids {
			cands = append(cands, netsim.BounceOption(id))
		}
		for _, a := range ids {
			for _, b := range ids {
				if a != b {
					cands = append(cands, netsim.TransitOption(a, b))
				}
			}
		}
		return cc.Choose(src, dst, cands)
	case strings.HasPrefix(s, "bounce:"):
		r, err := strconv.Atoi(strings.TrimPrefix(s, "bounce:"))
		if err != nil {
			return netsim.DirectOption(), fmt.Errorf("bad bounce option %q", s)
		}
		return netsim.BounceOption(netsim.RelayID(r)), nil
	case strings.HasPrefix(s, "transit:"):
		parts := strings.Split(strings.TrimPrefix(s, "transit:"), ":")
		if len(parts) != 2 {
			return netsim.DirectOption(), fmt.Errorf("bad transit option %q", s)
		}
		r1, err1 := strconv.Atoi(parts[0])
		r2, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil {
			return netsim.DirectOption(), fmt.Errorf("bad transit option %q", s)
		}
		return netsim.TransitOption(netsim.RelayID(r1), netsim.RelayID(r2)), nil
	default:
		return netsim.DirectOption(), fmt.Errorf("unknown option %q", s)
	}
}
