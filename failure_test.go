package demikernel

// Failure-injection tests: the simulation's fault models (fabric loss and
// reordering, RoCE's lossless-fabric assumption, NVMe controller reset)
// driven through the full Demikernel stack.

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"demikernel/internal/fabric"
	"demikernel/internal/libos/catmint"
	"demikernel/internal/rdma"
)

func TestKVSurvivesLossyFabric(t *testing.T) {
	// The user-level TCP stack under catnip must mask 8% loss and 10%
	// reordering from the application entirely.
	c := NewCluster(201)
	srv := c.MustSpawn(Catnip, WithHost(1))
	cli := c.MustSpawn(Catnip, WithHost(2))
	cqd, sqd, cleanup := connectNodes(t, c, cli, srv, 80)
	defer cleanup()

	c.Switch.SetImpairments(fabric.Impairments{LossRate: 0.08, ReorderRate: 0.1})
	for i := 0; i < 30; i++ {
		payload := bytes.Repeat([]byte{byte(i)}, 700+i*31)
		msg := NewSGA([]byte(fmt.Sprintf("%03d", i)), payload)
		if _, err := cli.BlockingPush(cqd, msg); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
		comp, err := srv.BlockingPop(sqd)
		if err != nil {
			t.Fatalf("pop %d: %v", i, err)
		}
		if !comp.SGA.Equal(msg) {
			t.Fatalf("message %d corrupted under loss", i)
		}
	}
	st := cli.Catnip.Stack().Stats()
	if st.Retransmits+st.FastRetransmits == 0 {
		t.Fatal("loss was configured but never exercised")
	}
}

func TestRDMAQPErrorOnLossyFabric(t *testing.T) {
	// RoCE semantics: the RDMA transport assumes a lossless fabric. A
	// lost frame must surface as a queue-pair error, not silent
	// corruption — and the error must reach the application as a failed
	// operation, not a hang.
	c := NewCluster(202)
	srv := c.MustSpawn(Catmint, WithHost(1))
	cli := c.MustSpawn(Catmint, WithHost(2))
	cqd, sqd, cleanup := connectNodes(t, c, cli, srv, 7)
	defer cleanup()

	// Heavy loss: some SEND or its ACK will vanish. Pipeline the pushes
	// so later frames expose the PSN gap a lost one leaves behind.
	c.Switch.SetImpairments(fabric.Impairments{LossRate: 0.5})
	var tokens []QToken
	for i := 0; i < 40; i++ {
		qt, err := cli.Push(cqd, NewSGA(bytes.Repeat([]byte{1}, 512)))
		if err != nil {
			break
		}
		tokens = append(tokens, qt)
	}
	cli.WaitTimeout = 500 * time.Millisecond
	sawFailure := false
	for _, qt := range tokens {
		comp, err := cli.Wait(qt)
		if err != nil || comp.Err != nil {
			sawFailure = true
			break
		}
	}
	if !sawFailure {
		t.Fatal("50% loss never surfaced as a failed operation")
	}
	// The device recorded the protocol-level diagnosis.
	errs := cli.Catmint.Device().Stats().QPErrors + srv.Catmint.Device().Stats().QPErrors
	rnrs := cli.Catmint.Device().Stats().RNRNaks + srv.Catmint.Device().Stats().RNRNaks
	if errs+rnrs == 0 {
		t.Fatal("no QP errors or NAKs recorded under loss")
	}
	_ = sqd
}

// TestCatmintOpTimeoutReadsNodeClock: catmint's dead-peer detector times
// a push by the node's clock, not the wall clock. A client partitioned
// with one push in flight has its clock stepped past the default
// OpTimeout; within a few polls the push fails with ErrOpTimeout and the
// endpoint is a dead peer, long before that timeout's two wall seconds.
func TestCatmintOpTimeoutReadsNodeClock(t *testing.T) {
	c := NewCluster(204)
	srv := c.MustSpawn(Catmint, WithHost(1))
	cli := c.MustSpawn(Catmint, WithHost(2))
	cqd, _, stop := connectNodes(t, c, cli, srv, 7)
	stop() // from here on, every poll is the test's

	start := time.Now()
	c.Switch.SetLinkState(cli.FabricPort(), false)
	qt, err := cli.Push(cqd, NewSGA([]byte("lost")))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		cli.Poll()
	}
	if _, ok, _ := cli.TryWait(qt); ok {
		t.Fatal("a push across a partition completed before any deadline")
	}
	cli.Clock().Step(catmint.DefaultOpTimeout + time.Millisecond)
	var comp Completion
	done := false
	for polls := 0; !done; polls++ {
		if polls == 3 {
			t.Fatal("the push outlived the node clock's step past OpTimeout by 3 polls")
		}
		cli.Poll()
		comp, done, err = cli.TryWait(qt)
		if err != nil {
			t.Fatal(err)
		}
	}
	if !errors.Is(comp.Err, catmint.ErrOpTimeout) {
		t.Fatalf("push completed with %v, want ErrOpTimeout", comp.Err)
	}
	qt, err = cli.Push(cqd, NewSGA([]byte("after")))
	if err != nil {
		t.Fatal(err)
	}
	if comp, ok, _ := cli.TryWait(qt); !ok || !errors.Is(comp.Err, ErrPeerDead) {
		t.Fatalf("the endpoint after the timeout: push done=%v err=%v, want a dead peer", ok, comp.Err)
	}
	if elapsed := time.Since(start); elapsed >= catmint.DefaultOpTimeout {
		t.Fatalf("the detector took %v of wall time", elapsed)
	}
}

func TestCatfishSurvivesFullDisk(t *testing.T) {
	c := NewCluster(203)
	node, err := c.Spawn(Catfish, WithBlocks(4)) // 4 blocks = 16 KiB namespace
	if err != nil {
		t.Fatal(err)
	}
	qd, err := node.Open("/tiny")
	if err != nil {
		t.Fatal(err)
	}
	// Fill the log until the device is full.
	failed := false
	for i := 0; i < 64; i++ {
		comp, err := node.BlockingPush(qd, NewSGA(make([]byte, 1024)))
		if err != nil {
			t.Fatal(err)
		}
		if comp.Err != nil {
			failed = true
			break
		}
	}
	if !failed {
		t.Fatal("writes never failed on a 16KiB namespace")
	}
	// Reads of earlier records still work.
	comp, err := node.BlockingPop(qd)
	if err != nil || comp.Err != nil {
		t.Fatalf("read after full disk: %v %v", err, comp.Err)
	}
}

func TestRDMARawQPErrorStatus(t *testing.T) {
	// Direct substrate check: a PSN break moves the QP to the error
	// state and later verbs are refused.
	model := c202model()
	sw := fabric.NewSwitch(&model, 204)
	a := rdma.New(&model, sw, fabric.MAC{2, 0, 0, 0, 0, 0xA1})
	b := rdma.New(&model, sw, fabric.MAC{2, 0, 0, 0, 0, 0xB1})
	pdB := b.AllocPD()
	scqB, rcqB := b.CreateCQ(), b.CreateCQ()
	l, err := b.Listen(9, pdB, scqB, rcqB)
	if err != nil {
		t.Fatal(err)
	}
	pdA := a.AllocPD()
	scqA, rcqA := a.CreateCQ(), a.CreateCQ()
	qp := a.NewQP(pdA, scqA, rcqA)
	qp.Connect(b.MAC(), 9)
	for a.Poll()+b.Poll() > 0 {
	}
	rqp, ok := l.Accept()
	if !ok {
		t.Fatal("accept failed")
	}
	mrB := pdB.RegisterMemory(make([]byte, 4096))
	for i := 0; i < 4; i++ {
		rqp.PostRecv(uint64(i), rdma.Sge{MR: mrB, Off: i * 1024, Len: 1024})
	}
	mrA := pdA.RegisterMemory(make([]byte, 64))

	// Drop exactly one frame mid-sequence.
	sw.SetImpairments(fabric.Impairments{LossRate: 1.0})
	qp.PostSend(100, rdma.Sge{MR: mrA, Off: 0, Len: 64}) // vanishes
	sw.SetImpairments(fabric.Impairments{})
	qp.PostSend(101, rdma.Sge{MR: mrA, Off: 0, Len: 64}) // PSN gap
	for a.Poll()+b.Poll() > 0 {
	}
	wcs := scqA.Poll(0)
	foundErr := false
	for _, wc := range wcs {
		if wc.Status == rdma.StatusQPError {
			foundErr = true
		}
	}
	if !foundErr {
		t.Fatalf("PSN break did not produce a QP error: %+v", wcs)
	}
	if b.Stats().QPErrors == 0 {
		t.Fatal("responder did not record the QP error")
	}
	// The broken QP refuses further work.
	if err := qp.PostSend(102, rdma.Sge{MR: mrA, Off: 0, Len: 64}); err == nil {
		for a.Poll()+b.Poll() > 0 {
		}
		// Either the post is refused or it completes with an error.
		wcs := scqA.Poll(0)
		ok := false
		for _, wc := range wcs {
			if wc.Status != rdma.StatusSuccess {
				ok = true
			}
		}
		if !ok {
			t.Fatal("verbs on an errored QP succeeded")
		}
	}
}

// c202model returns the standard cost model (helper keeps the test body
// tidy).
func c202model() CostModel {
	c := NewCluster(0)
	return c.Model
}
