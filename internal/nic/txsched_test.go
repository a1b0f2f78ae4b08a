package nic

import (
	"testing"
	"time"

	"demikernel/internal/fabric"
	"demikernel/internal/simclock"
	"demikernel/internal/tenant"
)

// schedRig builds a device whose TX lands on a sink NIC, so scheduled
// frames have somewhere to go.
func schedRig(t *testing.T) *Device {
	t.Helper()
	model := simclock.Datacenter2019()
	sw := fabric.NewSwitch(&model, 7)
	d := New(&model, sw, Config{MAC: fabric.MAC{0x02, 0xff, 0, 0, 0, 0}, RxQueues: 8})
	New(&model, sw, Config{MAC: macT3}) // sink
	return d
}

func payload(n int) []byte {
	data := make([]byte, n)
	copy(data[0:6], macT3[:])
	return data
}

// TestWDRRWeights stages equal backlogs on three queues weighted 4:2:1
// and checks one pump's budget is split proportionally.
func TestWDRRWeights(t *testing.T) {
	d := schedRig(t)
	s := d.sched
	weights := []int{4, 2, 1}
	qs := make([]*txQueue, len(weights))
	for i, w := range weights {
		qs[i] = s.newQueue("q", w, 0, 0, 1024, nil)
	}
	const frameSize = 1000
	for _, q := range qs {
		for i := 0; i < 600; i++ {
			s.enqueue(q, fabric.Frame{Data: payload(frameSize)})
		}
	}
	s.pump(d)
	sent := make([]int64, len(qs))
	var total int64
	for i, q := range qs {
		sent[i], _, _, _, _ = q.stats()
		total += sent[i]
	}
	if total*frameSize < txPumpBudget-frameSize {
		t.Fatalf("pump under-used its budget: sent %d bytes of %d", total*frameSize, txPumpBudget)
	}
	// Within one frame-per-round tolerance, shares track the weights.
	for i := range qs {
		share := float64(sent[i]) / float64(total)
		want := float64(weights[i]) / 7.0
		if share < want*0.8 || share > want*1.2 {
			t.Fatalf("queue %d (weight %d): share %.2f, want ~%.2f (sent %v)",
				i, weights[i], share, want, sent)
		}
	}
}

// TestTokenBucketRate drives a rate-limited queue with a stopped clock:
// the burst drains immediately, then sends track the time it is stepped.
func TestTokenBucketRate(t *testing.T) {
	d := schedRig(t)
	clock := simclock.NewClock()
	clock.SetSkew(-1e6) // stands still until stepped
	q := d.sched.newQueue("limited", 1, 1000 /* B/s */, 1000 /* burst */, 1024, clock)
	for i := 0; i < 50; i++ {
		d.sched.enqueue(q, fabric.Frame{Data: payload(100)})
	}
	d.sched.pump(d)
	if sent, _, _, _, _ := q.stats(); sent != 10 {
		t.Fatalf("sent %d frames at t0, want 10 (the 1000B burst)", sent)
	}
	clock.Step(500 * time.Millisecond) // 500 more bytes of tokens
	d.sched.pump(d)
	if sent, _, _, _, _ := q.stats(); sent != 15 {
		t.Fatalf("sent %d frames after 0.5s, want 15", sent)
	}
	clock.Step(10 * time.Second) // refill clamps at the burst depth
	d.sched.pump(d)
	if sent, _, _, _, _ := q.stats(); sent != 25 {
		t.Fatalf("sent %d frames after long idle, want 25 (burst-clamped)", sent)
	}
}

// TestThrottleDropsRelease fences the backpressure contract: a full TX
// ring drops the flooder's own frames and releases them back to the
// pool (the tenant ledger returns to zero), and a crash flush releases
// whatever was staged.
func TestThrottleDropsRelease(t *testing.T) {
	d := schedRig(t)
	// Rate so slow nothing drains: burst 1 byte, 1 B/s.
	stopped := simclock.NewClock()
	stopped.SetSkew(-1e6)
	q := d.sched.newQueue("stuck", 1, 1, 1, 4, stopped)
	pool := fabric.NewFramePool()
	ledger := tenant.NewLedger(0, 0)
	pool.SetOwner("flooder", ledger)
	for i := 0; i < 10; i++ {
		fb := pool.Get(100)
		d.sched.enqueue(q, fabric.Frame{Data: fb.Bytes(), Buf: fb})
	}
	_, _, queued, _, drops := q.stats()
	if queued != 4 || drops != 6 {
		t.Fatalf("queued=%d drops=%d, want 4/6", queued, drops)
	}
	if f, _ := ledger.Outstanding(); f != 4 {
		t.Fatalf("ledger holds %d frames, want 4 (drops must release)", f)
	}
	if n := d.sched.flushQueue(q); n != 4 {
		t.Fatalf("flush released %d, want 4", n)
	}
	if f, b := ledger.Outstanding(); f != 0 || b != 0 {
		t.Fatalf("ledger %d frames / %d bytes after flush, want 0/0", f, b)
	}
}

// TestGroupTxPath sends through the full QueueGroup TX surface and
// checks device counters account scheduled sends at the actual transmit.
func TestGroupTxPath(t *testing.T) {
	model := simclock.Datacenter2019()
	sw := fabric.NewSwitch(&model, 7)
	d := New(&model, sw, Config{MAC: fabric.MAC{0x02, 0xff, 0, 0, 0, 0}, RxQueues: 4})
	sink := New(&model, sw, Config{MAC: macT3})
	g, err := d.NewQueueGroup("t1", 2, GroupConfig{MAC: macT1, IP: ipT1, TxWeight: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		g.Tx(ethFrame(macT3, macT1, "via-group"), 0)
	}
	if got := len(sink.RxBurst(0, 64)) + len(sink.RxBurst(0, 64)); got != 8 {
		t.Fatalf("sink received %d frames, want 8", got)
	}
	if d.Stats().TxFrames != 8 {
		t.Fatalf("device TxFrames = %d, want 8", d.Stats().TxFrames)
	}
	gs := g.Stats()
	if gs.TxFrames != 8 || gs.TxQueued != 0 {
		t.Fatalf("group stats %+v, want 8 sent, 0 queued", gs)
	}
}
