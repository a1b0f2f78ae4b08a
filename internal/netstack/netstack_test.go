package netstack

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"time"

	"demikernel/internal/fabric"
	"demikernel/internal/nic"
	"demikernel/internal/simclock"
)

var (
	macA = fabric.MAC{0x02, 0, 0, 0, 0, 0xA}
	macB = fabric.MAC{0x02, 0, 0, 0, 0, 0xB}
	ipA  = IP(10, 0, 0, 1)
	ipB  = IP(10, 0, 0, 2)
)

type world struct {
	sw         *fabric.Switch
	a, b       *Stack
	devA, devB *nic.Device
}

func newWorld(t testing.TB, cfgA, cfgB Config) *world {
	t.Helper()
	model := simclock.Datacenter2019()
	sw := fabric.NewSwitch(&model, 99)
	devA := nic.New(&model, sw, nic.Config{MAC: macA})
	devB := nic.New(&model, sw, nic.Config{MAC: macB})
	cfgA.IP = ipA
	cfgB.IP = ipB
	return &world{
		sw:   sw,
		a:    New(&model, devA, cfgA),
		b:    New(&model, devB, cfgB),
		devA: devA,
		devB: devB,
	}
}

// pump polls both stacks until neither makes progress.
func (w *world) pump() {
	for {
		n := w.a.Poll() + w.b.Poll()
		if n == 0 {
			w.sw.Flush()
			if w.a.Poll()+w.b.Poll() == 0 {
				return
			}
		}
	}
}

// pumpUntil pumps with timer advancement until cond holds or the deadline
// passes.
func (w *world) pumpUntil(t testing.TB, cond func() bool, deadline time.Duration) {
	t.Helper()
	start := time.Now()
	for time.Since(start) < deadline {
		w.pump()
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("condition not reached within %v", deadline)
}

func dialPair(t testing.TB, w *world, port uint16) (client, server *TCPConn) {
	t.Helper()
	l, err := w.b.ListenTCP(port)
	if err != nil {
		t.Fatal(err)
	}
	c, err := w.a.DialTCP(ipB, port)
	if err != nil {
		t.Fatal(err)
	}
	w.pumpUntil(t, func() bool {
		if server == nil {
			server, _ = l.Accept()
		}
		return server != nil && c.Established()
	}, 2*time.Second)
	return c, server
}

// openUDP and recvUDP are OpenUDPHeld and RecvHeld, each under a hold of
// the stack's lock.
func openUDP(s *Stack, port uint16, owner any) (*UDPSock, error) {
	s.Mutex().Lock()
	defer s.Mutex().Unlock()
	return s.OpenUDPHeld(port, owner)
}

func recvUDP(u *UDPSock) (Datagram, bool) {
	u.stack.Mutex().Lock()
	defer u.stack.Mutex().Unlock()
	return u.RecvHeld()
}

func TestUDPBasic(t *testing.T) {
	w := newWorld(t, Config{}, Config{})
	ua, err := openUDP(w.a, 5000, nil)
	if err != nil {
		t.Fatal(err)
	}
	ub, err := openUDP(w.b, 6000, nil)
	if err != nil {
		t.Fatal(err)
	}
	ua.SendTo(ipB, 6000, []byte("ping"), 0)
	w.pump()
	d, ok := recvUDP(ub)
	if !ok {
		t.Fatal("datagram not delivered")
	}
	if string(d.Payload) != "ping" || d.SrcIP != ipA || d.SrcPort != 5000 {
		t.Fatalf("got %+v", d)
	}
	if d.Cost == 0 {
		t.Fatal("no virtual cost accumulated")
	}
	// Reply path uses the learned ARP entry.
	ub.SendTo(d.SrcIP, d.SrcPort, []byte("pong"), 0)
	w.pump()
	r, ok := recvUDP(ua)
	if !ok || string(r.Payload) != "pong" {
		t.Fatalf("reply missing: %v %q", ok, r.Payload)
	}
	if w.a.Stats().ARPRequests != 1 {
		t.Fatalf("ARPRequests = %d, want 1 (resolution once)", w.a.Stats().ARPRequests)
	}
}

// TestUDPReadyReportsOwner: a datagram landing on an owned socket puts it
// on the ready queue once, however many land, PollReady hands the owner
// back, and a closed socket is reported no more.
func TestUDPReadyReportsOwner(t *testing.T) {
	w := newWorld(t, Config{}, Config{})
	ua, _ := openUDP(w.a, 5000, nil)
	owner := new(int)
	ub, err := openUDP(w.b, 6000, owner)
	if err != nil {
		t.Fatal(err)
	}
	pollReady := func() []any {
		w.b.Mutex().Lock()
		defer w.b.Mutex().Unlock()
		_, ready := w.b.PollReady(nil)
		return ready
	}
	send := func(n int) {
		for i := 0; i < n; i++ {
			ua.SendTo(ipB, 6000, []byte("ping"), 0)
		}
		w.pump()
	}
	send(3)
	if _, ready, _ := w.b.WorkQueued(); ready != 1 {
		t.Fatalf("three datagrams queued the socket %d times, want once", ready)
	}
	if ready := pollReady(); len(ready) != 1 || ready[0] != owner {
		t.Fatalf("PollReady = %v, want the owner once", ready)
	}
	if ready := pollReady(); len(ready) != 0 {
		t.Fatalf("PollReady reported %v again with nothing new", ready)
	}
	send(1)
	ub.Close()
	if ready := pollReady(); len(ready) != 0 {
		t.Fatalf("PollReady reported the closed socket's owner: %v", ready)
	}
}

func TestUDPPortConflict(t *testing.T) {
	w := newWorld(t, Config{}, Config{})
	if _, err := openUDP(w.a, 7000, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := openUDP(w.a, 7000, nil); err == nil {
		t.Fatal("duplicate bind succeeded")
	}
}

func TestUDPNoListenerDropped(t *testing.T) {
	w := newWorld(t, Config{}, Config{})
	ua, _ := openUDP(w.a, 5000, nil)
	ua.SendTo(ipB, 9999, []byte("void"), 0)
	w.pump()
	if w.b.Stats().NoListener != 1 {
		t.Fatalf("NoListener = %d, want 1", w.b.Stats().NoListener)
	}
}

func TestTCPHandshake(t *testing.T) {
	w := newWorld(t, Config{}, Config{})
	c, srv := dialPair(t, w, 8000)
	if !c.Established() || !srv.Established() {
		t.Fatal("handshake incomplete")
	}
	if srv.RemoteIP() != ipA || c.RemoteIP() != ipB {
		t.Fatal("peer addresses wrong")
	}
}

func TestTCPDataTransfer(t *testing.T) {
	w := newWorld(t, Config{}, Config{})
	c, srv := dialPair(t, w, 8000)
	msg := []byte("hello over user-level tcp")
	if _, err := c.Send(msg, 0); err != nil {
		t.Fatal(err)
	}
	var got []byte
	w.pumpUntil(t, func() bool {
		b, _, err := srv.Recv(0)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, b...)
		return len(got) == len(msg)
	}, 2*time.Second)
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q", got)
	}
}

func TestTCPLargeTransferSegmentation(t *testing.T) {
	w := newWorld(t, Config{MSS: 500}, Config{MSS: 500})
	c, srv := dialPair(t, w, 8000)
	msg := make([]byte, 50_000)
	rand.New(rand.NewSource(1)).Read(msg)
	var got []byte
	sent := 0
	w.pumpUntil(t, func() bool {
		if sent < len(msg) {
			n, err := c.Send(msg[sent:], 0)
			if err != nil {
				t.Fatal(err)
			}
			sent += n
		}
		b, _, err := srv.Recv(0)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, b...)
		return len(got) == len(msg)
	}, 5*time.Second)
	if !bytes.Equal(got, msg) {
		t.Fatal("payload corrupted across segmentation")
	}
	if w.a.Stats().TCPSegsSent < 100 {
		t.Fatalf("expected >=100 segments for 50k/500B, got %d", w.a.Stats().TCPSegsSent)
	}
}

func TestTCPBidirectional(t *testing.T) {
	w := newWorld(t, Config{}, Config{})
	c, srv := dialPair(t, w, 8000)
	c.Send([]byte("c2s"), 0)
	srv.Send([]byte("s2c"), 0)
	var fromC, fromS []byte
	w.pumpUntil(t, func() bool {
		b1, _, _ := srv.Recv(0)
		fromC = append(fromC, b1...)
		b2, _, _ := c.Recv(0)
		fromS = append(fromS, b2...)
		return string(fromC) == "c2s" && string(fromS) == "s2c"
	}, 2*time.Second)
}

func TestTCPRetransmitUnderLoss(t *testing.T) {
	w := newWorld(t, Config{MSS: 512, RTO: 5 * time.Millisecond}, Config{MSS: 512, RTO: 5 * time.Millisecond})
	c, srv := dialPair(t, w, 8000)
	// Now inject 20% loss and push data through.
	w.sw.SetImpairments(fabric.Impairments{LossRate: 0.2})
	msg := make([]byte, 20_000)
	rand.New(rand.NewSource(2)).Read(msg)
	var got []byte
	sent := 0
	w.pumpUntil(t, func() bool {
		if sent < len(msg) {
			n, _ := c.Send(msg[sent:], 0)
			sent += n
		}
		b, _, err := srv.Recv(0)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, b...)
		return len(got) == len(msg)
	}, 10*time.Second)
	if !bytes.Equal(got, msg) {
		t.Fatal("payload corrupted under loss")
	}
	if w.a.Stats().Retransmits == 0 && w.a.Stats().FastRetransmits == 0 {
		t.Fatal("no retransmissions recorded under 20% loss")
	}
}

func TestTCPReordering(t *testing.T) {
	w := newWorld(t, Config{MSS: 256, RTO: 10 * time.Millisecond}, Config{MSS: 256, RTO: 10 * time.Millisecond})
	c, srv := dialPair(t, w, 8000)
	w.sw.SetImpairments(fabric.Impairments{ReorderRate: 0.3})
	msg := make([]byte, 10_000)
	rand.New(rand.NewSource(3)).Read(msg)
	var got []byte
	sent := 0
	w.pumpUntil(t, func() bool {
		if sent < len(msg) {
			n, _ := c.Send(msg[sent:], 0)
			sent += n
		}
		b, _, err := srv.Recv(0)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, b...)
		return len(got) == len(msg)
	}, 10*time.Second)
	if !bytes.Equal(got, msg) {
		t.Fatal("payload corrupted under reordering")
	}
}

func TestTCPDuplication(t *testing.T) {
	w := newWorld(t, Config{MSS: 256}, Config{MSS: 256})
	c, srv := dialPair(t, w, 8000)
	w.sw.SetImpairments(fabric.Impairments{DupRate: 0.5})
	msg := make([]byte, 8_000)
	rand.New(rand.NewSource(4)).Read(msg)
	var got []byte
	sent := 0
	w.pumpUntil(t, func() bool {
		if sent < len(msg) {
			n, _ := c.Send(msg[sent:], 0)
			sent += n
		}
		b, _, err := srv.Recv(0)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, b...)
		return len(got) >= len(msg)
	}, 10*time.Second)
	if !bytes.Equal(got, msg) {
		t.Fatalf("duplication corrupted stream: got %d bytes want %d", len(got), len(msg))
	}
}

func TestTCPCloseBothSides(t *testing.T) {
	w := newWorld(t, Config{}, Config{})
	c, srv := dialPair(t, w, 8000)
	c.Send([]byte("bye"), 0)
	c.Close()
	var got []byte
	w.pumpUntil(t, func() bool {
		b, _, err := srv.Recv(0)
		got = append(got, b...)
		return err == io.EOF
	}, 2*time.Second)
	if string(got) != "bye" {
		t.Fatalf("data before FIN lost: %q", got)
	}
	srv.Close()
	w.pumpUntil(t, func() bool {
		return connClosed(c) && connClosed(srv)
	}, 2*time.Second)
}

// connClosed reports whether both directions of c have shut down or it
// was reset.
func connClosed(c *TCPConn) bool {
	c.stack.mu.Lock()
	defer c.stack.mu.Unlock()
	return c.state == stateClosed
}

func TestTCPSendAfterCloseFails(t *testing.T) {
	w := newWorld(t, Config{}, Config{})
	c, _ := dialPair(t, w, 8000)
	c.Close()
	if _, err := c.Send([]byte("x"), 0); err == nil {
		t.Fatal("Send after Close succeeded")
	}
}

func TestTCPFlowControlZeroWindow(t *testing.T) {
	// Tiny receive window; receiver does not drain. Sender must stall
	// rather than overrun, then complete once the app drains.
	w := newWorld(t, Config{MSS: 512, RTO: 5 * time.Millisecond},
		Config{MSS: 512, RxWindow: 1024, RTO: 5 * time.Millisecond})
	c, srv := dialPair(t, w, 8000)
	msg := make([]byte, 8_000)
	rand.New(rand.NewSource(5)).Read(msg)
	sent := 0
	// Fill without draining: the transfer must stall around the window.
	for i := 0; i < 200; i++ {
		if sent < len(msg) {
			n, _ := c.Send(msg[sent:], 0)
			sent += n
		}
		w.pump()
		time.Sleep(100 * time.Microsecond)
	}
	var got []byte
	w.pumpUntil(t, func() bool {
		if sent < len(msg) {
			n, _ := c.Send(msg[sent:], 0)
			sent += n
		}
		b, _, err := srv.Recv(0)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, b...)
		return len(got) == len(msg)
	}, 10*time.Second)
	if !bytes.Equal(got, msg) {
		t.Fatal("flow-controlled stream corrupted")
	}
}

func TestTCPListenerPortConflict(t *testing.T) {
	w := newWorld(t, Config{}, Config{})
	if _, err := w.a.ListenTCP(80); err != nil {
		t.Fatal(err)
	}
	if _, err := w.a.ListenTCP(80); err == nil {
		t.Fatal("duplicate listener accepted")
	}
}

func TestTCPConnectNoListener(t *testing.T) {
	w := newWorld(t, Config{RTO: 5 * time.Millisecond}, Config{})
	c, err := w.a.DialTCP(ipB, 4242)
	if err != nil {
		t.Fatal(err)
	}
	// The SYN goes nowhere useful; the connection must not establish.
	for i := 0; i < 20; i++ {
		w.pump()
		time.Sleep(time.Millisecond)
	}
	if c.Established() {
		t.Fatal("established without a listener")
	}
	if w.b.Stats().NoListener == 0 {
		t.Fatal("server stack did not record the orphan SYN")
	}
}

func TestTCPMultipleConnections(t *testing.T) {
	w := newWorld(t, Config{}, Config{})
	l, err := w.b.ListenTCP(8000)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	clients := make([]*TCPConn, n)
	for i := range clients {
		c, err := w.a.DialTCP(ipB, 8000)
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}
	var servers []*TCPConn
	w.pumpUntil(t, func() bool {
		for {
			s, ok := l.Accept()
			if !ok {
				break
			}
			servers = append(servers, s)
		}
		return len(servers) == n
	}, 2*time.Second)
	// Each client sends its index; each server echoes it back.
	for i, c := range clients {
		c.Send([]byte{byte(i)}, 0)
	}
	echoed := 0
	w.pumpUntil(t, func() bool {
		for _, s := range servers {
			if b, _, _ := s.Recv(0); len(b) > 0 {
				s.Send(b, 0)
			}
		}
		for _, c := range clients {
			if b, _, _ := c.Recv(0); len(b) > 0 {
				echoed += len(b)
			}
		}
		return echoed == n
	}, 2*time.Second)
}

func TestTCPRecvMaxRespected(t *testing.T) {
	w := newWorld(t, Config{}, Config{})
	c, srv := dialPair(t, w, 8000)
	c.Send([]byte("0123456789"), 0)
	var first []byte
	w.pumpUntil(t, func() bool {
		b, _, _ := srv.Recv(4)
		first = append(first, b...)
		return len(first) > 0
	}, 2*time.Second)
	if len(first) > 4 {
		t.Fatalf("Recv(4) returned %d bytes", len(first))
	}
}

func TestCostAccumulatesOverTCP(t *testing.T) {
	w := newWorld(t, Config{}, Config{})
	c, srv := dialPair(t, w, 8000)
	c.Send([]byte("costed"), 12345)
	var cost simclock.Lat
	w.pumpUntil(t, func() bool {
		b, rc, _ := srv.Recv(0)
		if len(b) > 0 {
			cost = rc
			return true
		}
		return false
	}, 2*time.Second)
	if cost <= 12345 {
		t.Fatalf("cost = %v, want > base 12345 (stack+wire+nic)", cost)
	}
}

func TestChecksumRejectsCorruption(t *testing.T) {
	seg := tcpSegment{srcPort: 1, dstPort: 2, seq: 3, ack: 4, flags: flagACK, window: 100, payload: []byte("data")}
	b := seg.marshal(nil, ipA, ipB)
	if _, ok := parseTCP(b, ipA, ipB, fabric.CsumNone); !ok {
		t.Fatal("valid segment rejected")
	}
	b[len(b)-1] ^= 0xFF
	if _, ok := parseTCP(b, ipA, ipB, fabric.CsumNone); ok {
		t.Fatal("corrupt segment accepted")
	}
}

func TestIPv4HeaderRoundtrip(t *testing.T) {
	h := ipv4Header{totalLen: 40, id: 7, ttl: 64, proto: protoTCP, src: ipA, dst: ipB}
	b := h.marshal(nil)
	b = append(b, make([]byte, 20)...)
	got, body, ok := parseIPv4(b, fabric.CsumNone)
	if !ok {
		t.Fatal("rejected valid header")
	}
	if got.src != ipA || got.dst != ipB || got.proto != protoTCP || len(body) != 20 {
		t.Fatalf("parsed %+v", got)
	}
	b[9] ^= 0x40 // corrupt protocol field
	if _, _, ok := parseIPv4(b, fabric.CsumNone); ok {
		t.Fatal("accepted corrupt IPv4 header")
	}
}

func TestARPPacketRoundtrip(t *testing.T) {
	p := arpPacket{op: arpOpRequest, senderHW: macA, senderIP: ipA, targetIP: ipB}
	b := p.marshal(nil)
	got, ok := parseARP(b)
	if !ok || got != p {
		t.Fatalf("roundtrip: ok=%v got=%+v", ok, got)
	}
}

func TestIPv4String(t *testing.T) {
	if got := IP(192, 168, 0, 1).String(); got != "192.168.0.1" {
		t.Fatalf("String = %q", got)
	}
}

func TestRSTOnOrphanSegment(t *testing.T) {
	w := newWorld(t, Config{RTO: 5 * time.Millisecond}, Config{})
	c, err := w.a.DialTCP(ipB, 5555) // nobody listening on B
	if err != nil {
		t.Fatal(err)
	}
	w.pumpUntil(t, func() bool { return c.Err() != nil }, 2*time.Second)
	if c.Established() {
		t.Fatal("reset connection claims established")
	}
	if w.b.Stats().RSTsSent == 0 {
		t.Fatal("no RST emitted for orphan SYN")
	}
	if w.a.Stats().RSTsRcvd == 0 {
		t.Fatal("client never counted the RST")
	}
	// The descriptor fails fast on use.
	if _, err := c.Send([]byte("x"), 0); err == nil {
		t.Fatal("send on reset connection succeeded")
	}
}
