package nic

import (
	"math/rand"
	"testing"

	"demikernel/internal/fabric"
)

// TestSteeringIsolationProperty is the randomized isolation fence
// (ISSUE 6, satellite 4): no sequence of steering-rule installs —
// including ones the bounds check refuses — lets tenant A receive a
// frame addressed to tenant B. The adversary (tenant A) installs rules
// aimed at B's IP, at out-of-bounds ports, at foreign queues, and at
// its own resources; then randomized flows addressed to both tenants
// (plus strays) are injected and every delivered frame must sit in a
// queue range owned by its destination MAC's group.
func TestSteeringIsolationProperty(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1337} {
		seed := seed
		rng := rand.New(rand.NewSource(seed))
		d, inj := sharedNIC(t, 8)
		ga, err := d.NewQueueGroup("A", 3, GroupConfig{
			MAC:    macT1,
			IP:     ipT1,
			Bounds: SteeringBounds{PortLo: 5000, PortHi: 6000},
		})
		if err != nil {
			t.Fatal(err)
		}
		gb, err := d.NewQueueGroup("B", 3, GroupConfig{MAC: macT2, IP: ipT2})
		if err != nil {
			t.Fatal(err)
		}

		// Adversarial install phase: A tries everything.
		ips := [][4]byte{ipT1, ipT2, ipT3, {0, 0, 0, 0}}
		for i := 0; i < 200; i++ {
			r := SteeringRule{
				DstIP:     ips[rng.Intn(len(ips))],
				Proto:     []uint8{0, 6, 17}[rng.Intn(3)],
				DstPortLo: uint16(rng.Intn(9000)),
				Queue:     rng.Intn(8) - 2, // includes invalid queues
			}
			r.DstPortHi = r.DstPortLo + uint16(rng.Intn(2000))
			_ = ga.AddSteering(r) // denials are the point; ignore errors
			if rng.Intn(4) == 0 {
				_ = gb.AddSteering(SteeringRule{
					DstPortLo: uint16(1 + rng.Intn(60000)),
					DstPortHi: uint16(1 + rng.Intn(60000)),
					Queue:     rng.Intn(3),
				})
			}
		}

		// Traffic phase: flows to A, to B, and to nobody. The stray MAC
		// is never a frame source, so the switch floods it to the device
		// (a learned dst would be unicast back to the injector instead).
		macStray := fabric.MAC{0x02, 0, 0, 0, 1, 0xEE}
		macs := []fabric.MAC{macT1, macT2, macStray}
		sent := 0
		for i := 0; i < 500; i++ {
			dst := macs[rng.Intn(len(macs))]
			dstIP := ips[rng.Intn(3)]
			data := ipv4UDP(dst, macT3, [4]byte{10, 0, 0, 99}, dstIP,
				uint16(1+rng.Intn(60000)), uint16(1+rng.Intn(60000)), "prop")
			inj.Send(fabric.Frame{Data: data})
			sent++
			if rng.Intn(8) == 0 {
				inj.Send(fabric.Frame{Data: arpRequest(macT3, [4]byte{10, 0, 0, 99}, ips[rng.Intn(3)])})
				sent++
			}
			if i%32 != 0 {
				continue
			}
			checkOwnership(t, seed, d, ga, gb)
		}
		checkOwnership(t, seed, d, ga, gb)

		// Everything injected is accounted: delivered splits exactly into
		// received, ring-dropped, filter-dropped, and steer-dropped.
		s := d.Stats()
		if s.RxFrames+s.RxDropped+s.FilterDrops+s.SteerDrops != int64(sent) {
			t.Fatalf("seed %d: conservation: rx=%d dropped=%d filter=%d steer=%d, sent %d",
				seed, s.RxFrames, s.RxDropped, s.FilterDrops, s.SteerDrops, sent)
		}
	}
}

// checkOwnership drains every queue and asserts each frame landed
// inside the queue range of the group owning its destination.
func checkOwnership(t *testing.T, seed int64, d *Device, ga, gb *QueueGroup) {
	t.Helper()
	inRange := func(g *QueueGroup, q int) bool {
		return q >= g.BaseQueue() && q < g.BaseQueue()+g.NumRxQueues()
	}
	for q := 0; q < d.NumRxQueues(); q++ {
		for _, f := range d.RxBurst(q, 4096) {
			var dst fabric.MAC
			copy(dst[:], f.Data[0:6])
			switch {
			case dst == macT1:
				if !inRange(ga, q) {
					t.Fatalf("seed %d: frame for A on queue %d outside A's range", seed, q)
				}
			case dst == macT2:
				if !inRange(gb, q) {
					t.Fatalf("seed %d: frame for B on queue %d outside B's range", seed, q)
				}
			case dst == fabric.Broadcast:
				// ARP: owned by the target IP's group.
				var ip [4]byte
				copy(ip[:], f.Data[38:42])
				switch ip {
				case ipT1:
					if !inRange(ga, q) {
						t.Fatalf("seed %d: A's ARP on queue %d outside A's range", seed, q)
					}
				case ipT2:
					if !inRange(gb, q) {
						t.Fatalf("seed %d: B's ARP on queue %d outside B's range", seed, q)
					}
				default:
					t.Fatalf("seed %d: unowned ARP (target %v) delivered on queue %d", seed, ip, q)
				}
			default:
				t.Fatalf("seed %d: unowned frame (dst %v) delivered on queue %d", seed, dst, q)
			}
		}
	}
}
