package wan

import (
	"net"
	"testing"
	"time"
)

func udpPair(t *testing.T) (net.PacketConn, net.PacketConn) {
	t.Helper()
	a, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestPassThroughNoImpairment(t *testing.T) {
	a, b := udpPair(t)
	s := Wrap(a, 1)
	msg := []byte("hello")
	start := time.Now()
	if _, err := s.WriteTo(msg, b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	b.SetReadDeadline(time.Now().Add(time.Second))
	n, _, err := b.ReadFrom(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != "hello" {
		t.Errorf("got %q", buf[:n])
	}
	if time.Since(start) > 100*time.Millisecond {
		t.Error("unimpaired delivery took too long")
	}
}

func TestDelayApplied(t *testing.T) {
	a, b := udpPair(t)
	s := Wrap(a, 2)
	s.SetLink(b.LocalAddr().String(), LinkParams{DelayMs: 80})
	start := time.Now()
	if _, err := s.WriteTo([]byte("x"), b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	b.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, _, err := b.ReadFrom(buf); err != nil {
		t.Fatal(err)
	}
	if got := time.Since(start); got < 70*time.Millisecond {
		t.Errorf("packet arrived after %v, want >= ~80ms", got)
	}
}

func TestLossApplied(t *testing.T) {
	a, b := udpPair(t)
	s := Wrap(a, 3)
	s.SetLink(b.LocalAddr().String(), LinkParams{LossRate: 0.5})
	const n = 400
	for i := 0; i < n; i++ {
		if _, err := s.WriteTo([]byte{byte(i)}, b.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	received := 0
	buf := make([]byte, 16)
	for {
		b.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
		if _, _, err := b.ReadFrom(buf); err != nil {
			break
		}
		received++
	}
	if received < n/4 || received > 3*n/4 {
		t.Errorf("received %d/%d with 50%% loss", received, n)
	}
}

func TestBurstLossApplied(t *testing.T) {
	a, b := udpPair(t)
	s := Wrap(a, 13)
	s.SetLink(b.LocalAddr().String(), LinkParams{BurstLossRate: 0.3, MeanBurstLen: 4})
	const n = 600
	for i := 0; i < n; i++ {
		if _, err := s.WriteTo([]byte{byte(i)}, b.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	// The stationary loss rate must hold, and the drops must be counted as
	// statistical loss, not fault drops.
	drops := s.LossDrops()
	if drops < n/6 || drops > n/2 {
		t.Errorf("burst drops = %d/%d, want ~30%%", drops, n)
	}
	if s.FaultDrops() != 0 {
		t.Errorf("burst loss booked as fault drops: %d", s.FaultDrops())
	}
}

func TestBurstLossIsBursty(t *testing.T) {
	// With mean burst length 5, consecutive drops must cluster: count the
	// loss runs and compare against what 600 independent drops would give.
	a, b := udpPair(t)
	s := Wrap(a, 14)
	dst := b.LocalAddr().String()
	s.SetLink(dst, LinkParams{BurstLossRate: 0.3, MeanBurstLen: 5})
	const n = 2000
	runs, dropped := 0, 0
	inRun := false
	for i := 0; i < n; i++ {
		before := s.LossDrops()
		if _, err := s.WriteTo([]byte{byte(i)}, b.LocalAddr()); err != nil {
			t.Fatal(err)
		}
		if s.LossDrops() > before {
			dropped++
			if !inRun {
				runs++
				inRun = true
			}
		} else {
			inRun = false
		}
	}
	if dropped == 0 || runs == 0 {
		t.Fatal("no burst drops observed")
	}
	meanRun := float64(dropped) / float64(runs)
	if meanRun < 2.5 {
		t.Errorf("mean loss run = %.2f packets, want bursty (~5)", meanRun)
	}
}

func TestFullLossDropsEverything(t *testing.T) {
	a, b := udpPair(t)
	s := Wrap(a, 4)
	s.SetLink(b.LocalAddr().String(), LinkParams{LossRate: 1})
	for i := 0; i < 10; i++ {
		n, err := s.WriteTo([]byte("x"), b.LocalAddr())
		if err != nil || n != 1 {
			t.Fatal("drop should still report success")
		}
	}
	buf := make([]byte, 16)
	b.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if _, _, err := b.ReadFrom(buf); err == nil {
		t.Error("packet leaked through 100% loss")
	}
}

func TestDefaultLink(t *testing.T) {
	a, _ := udpPair(t)
	s := Wrap(a, 5)
	s.SetDefault(LinkParams{DelayMs: 10})
	if got := s.Link("1.2.3.4:99"); got.DelayMs != 10 {
		t.Errorf("default link = %+v", got)
	}
	s.SetLink("1.2.3.4:99", LinkParams{DelayMs: 50})
	if got := s.Link("1.2.3.4:99"); got.DelayMs != 50 {
		t.Errorf("specific link = %+v", got)
	}
}

func TestJitterVariesDelay(t *testing.T) {
	a, b := udpPair(t)
	s := Wrap(a, 6)
	s.SetLink(b.LocalAddr().String(), LinkParams{DelayMs: 5, JitterMs: 15})
	// Send paced packets; arrival spacing should vary noticeably.
	go func() {
		for i := 0; i < 40; i++ {
			s.WriteTo([]byte{byte(i)}, b.LocalAddr())
			time.Sleep(5 * time.Millisecond)
		}
	}()
	var arrivals []time.Time
	buf := make([]byte, 16)
	for i := 0; i < 40; i++ {
		b.SetReadDeadline(time.Now().Add(time.Second))
		if _, _, err := b.ReadFrom(buf); err != nil {
			break
		}
		arrivals = append(arrivals, time.Now())
	}
	if len(arrivals) < 30 {
		t.Fatalf("only %d arrivals", len(arrivals))
	}
	varied := 0
	for i := 1; i < len(arrivals); i++ {
		gap := arrivals[i].Sub(arrivals[i-1])
		if gap < 2*time.Millisecond || gap > 8*time.Millisecond {
			varied++
		}
	}
	if varied < 5 {
		t.Errorf("arrival spacing too regular for 15ms jitter (%d varied gaps)", varied)
	}
}

func TestBlackholePerDestination(t *testing.T) {
	a, b := udpPair(t)
	s := Wrap(a, 10)
	dst := b.LocalAddr().String()
	s.SetBlackhole(dst, true)
	if !s.Blackholed(dst) {
		t.Error("blackhole not reported")
	}
	for i := 0; i < 5; i++ {
		n, err := s.WriteTo([]byte("x"), b.LocalAddr())
		if err != nil || n != 1 {
			t.Fatal("blackholed write must still report success")
		}
	}
	buf := make([]byte, 16)
	b.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if _, _, err := b.ReadFrom(buf); err == nil {
		t.Error("packet leaked through blackhole")
	}
	if s.FaultDrops() != 5 {
		t.Errorf("fault drops = %d, want 5", s.FaultDrops())
	}

	// Healing restores delivery.
	s.SetBlackhole(dst, false)
	if s.Blackholed(dst) {
		t.Error("blackhole still reported after heal")
	}
	if _, err := s.WriteTo([]byte("y"), b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	b.SetReadDeadline(time.Now().Add(time.Second))
	if _, _, err := b.ReadFrom(buf); err != nil {
		t.Error("packet lost after heal:", err)
	}
}

func TestBlackholeAll(t *testing.T) {
	a, b := udpPair(t)
	s := Wrap(a, 11)
	s.SetBlackholeAll(true)
	if !s.Blackholed("anything:1") {
		t.Error("blackhole-all not reported")
	}
	s.WriteTo([]byte("x"), b.LocalAddr())
	buf := make([]byte, 16)
	b.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if _, _, err := b.ReadFrom(buf); err == nil {
		t.Error("packet leaked through full blackhole")
	}
	s.SetBlackholeAll(false)
	s.WriteTo([]byte("y"), b.LocalAddr())
	b.SetReadDeadline(time.Now().Add(time.Second))
	if _, _, err := b.ReadFrom(buf); err != nil {
		t.Error("packet lost after heal:", err)
	}
}

func TestWriteAfterClose(t *testing.T) {
	a, b := udpPair(t)
	s := Wrap(a, 7)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteTo([]byte("x"), b.LocalAddr()); err == nil {
		t.Error("write after close should fail")
	}
	if err := s.Close(); err != nil {
		t.Error("double close should be a no-op")
	}
}

func TestCloseWaitsForPending(t *testing.T) {
	a, b := udpPair(t)
	s := Wrap(a, 8)
	s.SetLink(b.LocalAddr().String(), LinkParams{DelayMs: 30})
	s.WriteTo([]byte("x"), b.LocalAddr())
	done := make(chan struct{})
	go func() {
		s.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close hung")
	}
}

func TestLocalAddrAndDeadlines(t *testing.T) {
	a, _ := udpPair(t)
	s := Wrap(a, 9)
	if s.LocalAddr() == nil {
		t.Error("nil local addr")
	}
	if err := s.SetDeadline(time.Now().Add(time.Second)); err != nil {
		t.Error(err)
	}
	if err := s.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
		t.Error(err)
	}
	if err := s.SetWriteDeadline(time.Now().Add(time.Second)); err != nil {
		t.Error(err)
	}
}

// TestDelayedWritesKeepTheirDestination: two delayed datagrams written
// through one *net.UDPAddr, overwritten between and after the writes,
// each reach the destination it was written to.
func TestDelayedWritesKeepTheirDestination(t *testing.T) {
	a, b1 := udpPair(t)
	_, b2 := udpPair(t)
	s := Wrap(a, 12)
	s.SetDefault(LinkParams{DelayMs: 30})
	to := &net.UDPAddr{IP: make(net.IP, 4), Port: 0}
	for i, dst := range []net.PacketConn{b1, b2} {
		u := dst.LocalAddr().(*net.UDPAddr)
		copy(to.IP, u.IP.To4())
		to.Port = u.Port
		if _, err := s.WriteTo([]byte{byte('1' + i)}, to); err != nil {
			t.Fatal(err)
		}
	}
	copy(to.IP, net.IPv4(192, 0, 2, 1).To4()) // both are still in flight
	to.Port = 9
	if s.Delayed() != 2 {
		t.Fatalf("delayed = %d, want 2", s.Delayed())
	}
	buf := make([]byte, 16)
	for i, dst := range []net.PacketConn{b1, b2} {
		dst.SetReadDeadline(time.Now().Add(time.Second))
		n, _, err := dst.ReadFrom(buf)
		if err != nil {
			t.Fatalf("destination %d: %v", i+1, err)
		}
		if got := string(buf[:n]); got != string(rune('1'+i)) {
			t.Errorf("destination %d received %q", i+1, got)
		}
	}
}
