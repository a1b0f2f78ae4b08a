package chaos

import (
	"testing"
	"time"

	"demikernel/internal/fabric"
	"demikernel/internal/simclock"
)

// fakeNode records lifecycle calls; it stands in for demikernel.Node in
// NodeCrashRestart's schedule.
type fakeNode struct {
	crashes, restarts int
	order             []string
}

func (f *fakeNode) Crash() (int, error) {
	f.crashes++
	f.order = append(f.order, "crash")
	return 3, nil
}

func (f *fakeNode) Restart() error {
	f.restarts++
	f.order = append(f.order, "restart")
	return nil
}

func TestNodeCrashRestartSchedulesBothPhases(t *testing.T) {
	e := New(11)
	n := &fakeNode{}
	e.NodeCrashRestart(0, 3*time.Millisecond, "srv", n)
	e.Run(5*time.Millisecond, time.Millisecond)
	if n.crashes != 1 || n.restarts != 1 {
		t.Fatalf("crashes=%d restarts=%d, want 1/1", n.crashes, n.restarts)
	}
	if len(n.order) != 2 || n.order[0] != "crash" || n.order[1] != "restart" {
		t.Fatalf("order = %v", n.order)
	}
	fired := e.Fired()
	if len(fired) != 2 || fired[0] != "node-crash(srv)" || fired[1] != "node-restart(srv)" {
		t.Fatalf("fired = %v", fired)
	}
}

func TestFiredEventsCarryOffsets(t *testing.T) {
	e := New(12)
	e.At(0, "now", func() {})
	e.At(2*time.Millisecond, "later", func() {})
	e.Run(4*time.Millisecond, time.Millisecond)
	evs := e.FiredEvents()
	if len(evs) != 2 {
		t.Fatalf("FiredEvents = %v", evs)
	}
	if evs[0].Name != "now" || evs[0].At != 0 {
		t.Fatalf("first event = %+v", evs[0])
	}
	if evs[1].Name != "later" || evs[1].At != 2*time.Millisecond {
		t.Fatalf("second event = %+v", evs[1])
	}
	for _, ev := range evs {
		if ev.FiredAt < ev.At {
			t.Fatalf("event %q fired before its offset: %+v", ev.Name, ev)
		}
	}
}

func ethFrame(dst, src fabric.MAC) fabric.Frame {
	data := make([]byte, 0, 18)
	data = append(data, dst[:]...)
	data = append(data, src[:]...)
	data = append(data, 0x08, 0x00, 0xDE, 0xAD)
	return fabric.Frame{Data: data}
}

// The gray failure: A→B blocked, B→A flowing. B still hears A and
// believes the path healthy; A's frames die counted in AsymDrops.
func TestAsymmetricPartitionIsOneWay(t *testing.T) {
	model := simclock.Datacenter2019()
	sw := fabric.NewSwitch(&model, 21)
	macA := fabric.MAC{2, 0, 0, 0, 0, 0xA}
	macB := fabric.MAC{2, 0, 0, 0, 0, 0xB}
	pa := sw.NewPort(0)
	pb := sw.NewPort(0)
	// Teach the switch both MACs so unicast forwarding (not flood) is
	// what the block intercepts.
	pa.Send(ethFrame(macB, macA))
	pb.Poll()
	pb.Send(ethFrame(macA, macB))
	pa.Poll()

	e := New(21)
	e.AsymmetricPartition(0, 3*time.Millisecond, sw, pa.ID(), pb.ID())
	e.Start()
	e.Step() // partition up

	pa.Send(ethFrame(macB, macA)) // A→B: blocked
	if _, ok := pb.Poll(); ok {
		t.Fatal("A→B frame crossed an asymmetric partition")
	}
	pb.Send(ethFrame(macA, macB)) // B→A: flows
	if _, ok := pa.Poll(); !ok {
		t.Fatal("B→A frame dropped by a block on the opposite direction")
	}
	if d := sw.Stats().AsymDrops; d != 1 {
		t.Fatalf("AsymDrops = %d, want 1", d)
	}

	// Heal fires at +3ms; afterwards A→B flows again.
	for !e.Done() {
		e.Step()
		time.Sleep(time.Millisecond)
	}
	pa.Send(ethFrame(macB, macA))
	if _, ok := pb.Poll(); !ok {
		t.Fatal("A→B still blocked after heal")
	}
}
