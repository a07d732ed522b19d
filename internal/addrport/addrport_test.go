package addrport

import (
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"
)

// hidden hides the value-address methods of the socket it wraps.
type hidden struct{ net.PacketConn }

// TestAdapt: a *net.UDPConn is used as it is; a conn without the
// value-address methods is adapted, reads its sources as values and
// writes to IPv4 and 4-in-6 destinations without allocating.
func TestAdapt(t *testing.T) {
	sock, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sock.Close()
	if Adapt(sock) != Conn(sock) {
		t.Error("a *net.UDPConn was adapted")
	}
	peer, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	c := Adapt(hidden{sock})
	if _, ok := c.(*net.UDPConn); ok {
		t.Fatal("the wrapper was not adapted")
	}
	to := peer.LocalAddr().(*net.UDPAddr).AddrPort()
	mapped := netip.AddrPortFrom(netip.AddrFrom16(to.Addr().As16()), to.Port())
	msg := []byte("v4")
	var werr error
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := c.WriteToUDPAddrPort(msg, to); err != nil {
			werr = err
		}
		if _, err := c.WriteToUDPAddrPort(msg, mapped); err != nil {
			werr = err
		}
	})
	if werr != nil {
		t.Fatal(werr)
	}
	if allocs != 0 {
		t.Errorf("adapted writes allocate %v", allocs)
	}

	if _, err := peer.WriteToUDPAddrPort([]byte("back"), sock.LocalAddr().(*net.UDPAddr).AddrPort()); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(time.Second))
	buf := make([]byte, 16)
	n, src, err := c.ReadFromUDPAddrPort(buf)
	if err != nil || string(buf[:n]) != "back" || src != to {
		t.Errorf("read %q from %v (%v), want %q from %v", buf[:n], src, err, "back", to)
	}
}

// TestAdaptConcurrentWrites: writers on several goroutines share the
// adapter's one destination address, and each datagram still reaches the
// destination it was written to.
func TestAdaptConcurrentWrites(t *testing.T) {
	listen := func() *net.UDPConn {
		c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	c := Adapt(hidden{listen()})
	const writers, each = 4, 50
	dsts := make([]*net.UDPConn, writers)
	for i := range dsts {
		dsts[i] = listen()
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers) // one per writer at most
	for i, d := range dsts {
		to := d.LocalAddr().(*net.UDPAddr).AddrPort()
		wg.Add(1)
		go func() {
			defer wg.Done()
			msg := []byte{byte(i)}
			for j := 0; j < each; j++ {
				if _, err := c.WriteToUDPAddrPort(msg, to); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	for i, d := range dsts {
		d.SetReadDeadline(time.Now().Add(time.Second))
		for j := 0; j < each; j++ {
			n, _, err := d.ReadFromUDPAddrPort(buf)
			if err != nil {
				t.Fatalf("destination %d after %d datagrams: %v", i, j, err)
			}
			if n != 1 || buf[0] != byte(i) {
				t.Fatalf("destination %d received %v", i, buf[:n])
			}
		}
	}
}
