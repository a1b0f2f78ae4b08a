package nic

import (
	"errors"
	"testing"

	"demikernel/internal/fabric"
	"demikernel/internal/simclock"
)

var (
	macT1 = fabric.MAC{0x02, 0, 0, 0, 1, 0x01}
	macT2 = fabric.MAC{0x02, 0, 0, 0, 1, 0x02}
	macT3 = fabric.MAC{0x02, 0, 0, 0, 1, 0x03}
)

var (
	ipT1 = [4]byte{10, 0, 0, 1}
	ipT2 = [4]byte{10, 0, 0, 2}
	ipT3 = [4]byte{10, 0, 0, 3}
)

// ipv4UDP builds a minimal IPv4/UDP frame with the fields classification
// reads: etherType, IHL, proto, src/dst IP, src/dst port.
func ipv4UDP(dst, src fabric.MAC, srcIP, dstIP [4]byte, srcPort, dstPort uint16, payload string) []byte {
	data := make([]byte, 42+len(payload))
	copy(data[0:6], dst[:])
	copy(data[6:12], src[:])
	data[12], data[13] = 0x08, 0x00
	data[14] = 0x45 // IHL 5, no options
	data[23] = 17   // UDP
	copy(data[26:30], srcIP[:])
	copy(data[30:34], dstIP[:])
	data[34], data[35] = byte(srcPort>>8), byte(srcPort)
	data[36], data[37] = byte(dstPort>>8), byte(dstPort)
	copy(data[42:], payload)
	return data
}

// arpRequest builds a broadcast ARP request for targetIP.
func arpRequest(src fabric.MAC, srcIP, targetIP [4]byte) []byte {
	data := make([]byte, 42)
	copy(data[0:6], fabric.Broadcast[:])
	copy(data[6:12], src[:])
	data[12], data[13] = 0x08, 0x06
	// ARP body: htype/ptype/hlen/plen/oper, sender MAC+IP, target MAC+IP.
	data[14], data[15] = 0x00, 0x01
	data[16], data[17] = 0x08, 0x00
	data[18], data[19] = 6, 4
	data[20], data[21] = 0x00, 0x01
	copy(data[22:28], src[:])
	copy(data[28:32], srcIP[:])
	copy(data[38:42], targetIP[:])
	return data
}

// sharedNIC builds an RxQueues-queue device plus a raw injection port on
// the same switch.
func sharedNIC(t *testing.T, queues int) (*Device, *fabric.Port) {
	t.Helper()
	model := simclock.Datacenter2019()
	sw := fabric.NewSwitch(&model, 7)
	d := New(&model, sw, Config{MAC: fabric.MAC{0x02, 0xff, 0, 0, 0, 0}, RxQueues: queues})
	inj := sw.NewPort(256)
	// Teach the switch where the shared NIC lives so unicast to any
	// tenant MAC (which the switch has never seen as a source) floods —
	// flooding still reaches the device, which is all these tests need.
	return d, inj
}

func TestQueueGroupClaims(t *testing.T) {
	d, _ := sharedNIC(t, 8)
	g1, err := d.NewQueueGroup("t1", 4, GroupConfig{MAC: macT1, IP: ipT1})
	if err != nil {
		t.Fatal(err)
	}
	if g1.BaseQueue() != 0 || g1.NumRxQueues() != 4 {
		t.Fatalf("g1 claim = [%d,+%d)", g1.BaseQueue(), g1.NumRxQueues())
	}
	g2, err := d.NewQueueGroup("t2", 2, GroupConfig{MAC: macT2, IP: ipT2})
	if err != nil {
		t.Fatal(err)
	}
	if g2.BaseQueue() != 4 || g2.NumRxQueues() != 2 {
		t.Fatalf("g2 claim = [%d,+%d), want [4,+2)", g2.BaseQueue(), g2.NumRxQueues())
	}
	if _, err := d.NewQueueGroup("t3", 4, GroupConfig{MAC: macT3, IP: ipT3}); !errors.Is(err, ErrNoQueues) {
		t.Fatalf("oversubscribed claim: err = %v, want ErrNoQueues", err)
	}
	if _, err := d.NewQueueGroup("dup-mac", 1, GroupConfig{MAC: macT1, IP: ipT3}); !errors.Is(err, ErrSteeringDenied) {
		t.Fatalf("duplicate MAC: err = %v, want ErrSteeringDenied", err)
	}
	if _, err := d.NewQueueGroup("dup-ip", 1, GroupConfig{MAC: macT3, IP: ipT2}); !errors.Is(err, ErrSteeringDenied) {
		t.Fatalf("duplicate IP: err = %v, want ErrSteeringDenied", err)
	}
}

// drainAll pops every queue and returns frame payload owners by queue.
func drainAll(d *Device) map[int][]fabric.Frame {
	out := map[int][]fabric.Frame{}
	for q := 0; q < d.NumRxQueues(); q++ {
		if fs := d.RxBurst(q, 1024); len(fs) > 0 {
			out[q] = fs
		}
	}
	return out
}

func TestGroupOwnershipSteering(t *testing.T) {
	d, inj := sharedNIC(t, 8)
	g1, _ := d.NewQueueGroup("t1", 4, GroupConfig{MAC: macT1, IP: ipT1})
	g2, _ := d.NewQueueGroup("t2", 2, GroupConfig{MAC: macT2, IP: ipT2})

	srcIP := [4]byte{10, 0, 0, 99}
	for port := uint16(5000); port < 5032; port++ {
		inj.Send(fabric.Frame{Data: ipv4UDP(macT1, macT3, srcIP, ipT1, port, 7000, "to-t1")})
		inj.Send(fabric.Frame{Data: ipv4UDP(macT2, macT3, srcIP, ipT2, port, 7000, "to-t2")})
	}
	// A frame owned by nobody: unicast to an unclaimed MAC the switch
	// has never learned, so it floods to the device.
	macStray := fabric.MAC{0x02, 0, 0, 0, 1, 0xEE}
	inj.Send(fabric.Frame{Data: ipv4UDP(macStray, macT1, srcIP, ipT3, 1, 2, "stray")})

	byQueue := drainAll(d)
	for q, frames := range byQueue {
		for _, f := range frames {
			var dst fabric.MAC
			copy(dst[:], f.Data[0:6])
			switch dst {
			case macT1:
				if q < g1.BaseQueue() || q >= g1.BaseQueue()+g1.NumRxQueues() {
					t.Fatalf("t1 frame on queue %d outside [0,4)", q)
				}
			case macT2:
				if q < g2.BaseQueue() || q >= g2.BaseQueue()+g2.NumRxQueues() {
					t.Fatalf("t2 frame on queue %d outside [4,6)", q)
				}
			default:
				t.Fatalf("unowned frame (dst %v) delivered on queue %d", dst, q)
			}
		}
	}
	if got := d.Stats().SteerDrops; got != 1 {
		t.Fatalf("SteerDrops = %d, want 1 (the stray)", got)
	}
	if g1.Stats().RxFrames != 32 || g2.Stats().RxFrames != 32 {
		t.Fatalf("group rx counters = %d/%d, want 32/32",
			g1.Stats().RxFrames, g2.Stats().RxFrames)
	}
	// Conservation with the new bucket: delivered = rx + dropped + steer.
	s := d.Stats()
	if s.RxFrames+s.RxDropped+s.FilterDrops+s.SteerDrops != 65 {
		t.Fatalf("conservation: %+v does not sum to 65 delivered", s)
	}
}

func TestARPSteersByTargetIP(t *testing.T) {
	d, inj := sharedNIC(t, 8)
	g1, _ := d.NewQueueGroup("t1", 4, GroupConfig{MAC: macT1, IP: ipT1})
	g2, _ := d.NewQueueGroup("t2", 2, GroupConfig{MAC: macT2, IP: ipT2})

	inj.Send(fabric.Frame{Data: arpRequest(macT3, [4]byte{10, 0, 0, 99}, ipT2)})
	byQueue := drainAll(d)
	if len(byQueue[g2.BaseQueue()]) != 1 {
		t.Fatalf("ARP for t2's IP not on t2's base queue: %v", keysOf(byQueue))
	}
	// ARP for an IP nobody owns is a steer drop, not anyone's traffic.
	inj.Send(fabric.Frame{Data: arpRequest(macT3, [4]byte{10, 0, 0, 99}, ipT3)})
	if got := drainAll(d); len(got) != 0 {
		t.Fatalf("unowned ARP delivered: %v", keysOf(got))
	}
	if d.Stats().SteerDrops != 1 {
		t.Fatalf("SteerDrops = %d, want 1", d.Stats().SteerDrops)
	}
	_ = g1
}

func keysOf(m map[int][]fabric.Frame) []int {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}

func TestAddSteeringBounds(t *testing.T) {
	d, _ := sharedNIC(t, 8)
	g, _ := d.NewQueueGroup("t1", 4, GroupConfig{
		MAC:    macT1,
		IP:     ipT1,
		Bounds: SteeringBounds{PortLo: 1000, PortHi: 2000},
	})
	if err := g.AddSteering(SteeringRule{DstPortLo: 1500, DstPortHi: 1600, Queue: 2}); err != nil {
		t.Fatalf("in-bounds rule refused: %v", err)
	}
	cases := []SteeringRule{
		{DstPortLo: 500, DstPortHi: 600, Queue: 0},   // below bound
		{DstPortLo: 1500, DstPortHi: 2500, Queue: 0}, // straddles bound
		{Queue: 0}, // any-port under bounded ports
		{DstPortLo: 1500, DstPortHi: 1600, Queue: 4},    // queue outside group
		{DstIP: ipT2, DstPortLo: 1500, DstPortHi: 1600}, // foreign IP
		{DstPortLo: 1600, DstPortHi: 1500, Queue: 0},    // inverted range
	}
	for i, r := range cases {
		if err := g.AddSteering(r); !errors.Is(err, ErrSteeringDenied) {
			t.Fatalf("case %d: err = %v, want ErrSteeringDenied", i, err)
		}
	}
	if got := g.Stats().SteeringDenied; got != int64(len(cases)) {
		t.Fatalf("SteeringDenied = %d, want %d", got, len(cases))
	}
}

func TestSteeringRuleDirectsFlow(t *testing.T) {
	d, inj := sharedNIC(t, 8)
	g, _ := d.NewQueueGroup("t1", 4, GroupConfig{MAC: macT1, IP: ipT1})
	if err := g.AddSteering(SteeringRule{Proto: 17, DstPortLo: 7000, DstPortHi: 7000, Queue: 3}); err != nil {
		t.Fatal(err)
	}
	srcIP := [4]byte{10, 0, 0, 99}
	for sp := uint16(6000); sp < 6016; sp++ {
		inj.Send(fabric.Frame{Data: ipv4UDP(macT1, macT3, srcIP, ipT1, sp, 7000, "steered")})
	}
	byQueue := drainAll(d)
	if len(byQueue) != 1 || len(byQueue[g.BaseQueue()+3]) != 16 {
		t.Fatalf("steered flow scattered across queues %v, want all on %d",
			keysOf(byQueue), g.BaseQueue()+3)
	}
}

func TestGroupRSSAlignment(t *testing.T) {
	d, inj := sharedNIC(t, 8)
	// Claim an offset so the group's range is [2, 6): alignment must be
	// base-relative, not absolute.
	if _, err := d.NewQueueGroup("pad", 2, GroupConfig{MAC: macT3, IP: ipT3}); err != nil {
		t.Fatal(err)
	}
	g, _ := d.NewQueueGroup("t1", 4, GroupConfig{MAC: macT1, IP: ipT1})
	srcIP := [4]byte{10, 0, 0, 99}
	for sp := uint16(6000); sp < 6064; sp++ {
		want := g.BaseQueue() + RSSQueueFlow(srcIP, ipT1, sp, 9000, g.NumRxQueues())
		inj.Send(fabric.Frame{Data: ipv4UDP(macT1, macT2, srcIP, ipT1, sp, 9000, "rss")})
		got := drainAll(d)
		if len(got) != 1 || len(got[want]) != 1 {
			t.Fatalf("srcPort %d: frame on queues %v, want queue %d (group-relative RSS)",
				sp, keysOf(got), want)
		}
	}
}

// TestClassifyZeroAlloc fences the multi-tenant classification hot path:
// snapshot load + MAC map lookup + group RSS must not allocate. This is
// the satellite that replaced the per-frame filterMu.RLock — the point
// of copy-on-write classification is a steady state with zero locks and
// zero garbage per frame.
func TestClassifyZeroAlloc(t *testing.T) {
	d, _ := sharedNIC(t, 8)
	g, _ := d.NewQueueGroup("t1", 4, GroupConfig{MAC: macT1, IP: ipT1})
	if err := g.AddSteering(SteeringRule{Proto: 17, DstPortLo: 7000, DstPortHi: 7000, Queue: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.NewQueueGroup("t2", 2, GroupConfig{MAC: macT2, IP: ipT2}); err != nil {
		t.Fatal(err)
	}
	frames := [][]byte{
		ipv4UDP(macT1, macT3, [4]byte{10, 0, 0, 99}, ipT1, 6001, 7000, "ruled"),
		ipv4UDP(macT1, macT3, [4]byte{10, 0, 0, 99}, ipT1, 6002, 8000, "rss"),
		ipv4UDP(macT2, macT3, [4]byte{10, 0, 0, 99}, ipT2, 6003, 8000, "other"),
		arpRequest(macT3, [4]byte{10, 0, 0, 99}, ipT1),
		ipv4UDP(macT3, macT1, [4]byte{10, 0, 0, 99}, ipT3, 1, 2, "stray"),
	}
	i := 0
	avg := testing.AllocsPerRun(1000, func() {
		tab := d.class.Load()
		f := fabric.Frame{Data: frames[i%len(frames)]}
		i++
		d.classify(tab, &f)
	})
	if avg != 0 {
		t.Fatalf("classify allocates %.1f per frame, want 0", avg)
	}
}

// TestConcurrentMutationVsRx exercises the copy-on-write table under
// -race: one goroutine mutates filters and steering rules while another
// drains traffic.
func TestConcurrentMutationVsRx(t *testing.T) {
	d, inj := sharedNIC(t, 8)
	g, _ := d.NewQueueGroup("t1", 4, GroupConfig{MAC: macT1, IP: ipT1})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			d.AddFilter(HWFilter{Match: func([]byte) bool { return false }})
			_ = g.AddSteering(SteeringRule{Proto: 17, DstPortLo: uint16(7000 + i), DstPortHi: uint16(7000 + i), Queue: i % 4})
			if i%50 == 0 {
				clearFilters(d)
			}
		}
	}()
	srcIP := [4]byte{10, 0, 0, 99}
	got := 0
	for i := 0; i < 200; i++ {
		inj.Send(fabric.Frame{Data: ipv4UDP(macT1, macT3, srcIP, ipT1, uint16(6000+i), 7000, "x")})
		for q := 0; q < 8; q++ {
			got += len(d.RxBurst(q, 64))
		}
	}
	<-done
	for q := 0; q < 8; q++ {
		got += len(d.RxBurst(q, 1024))
	}
	if got != 200 {
		t.Fatalf("received %d of 200 frames during concurrent mutation", got)
	}
}
