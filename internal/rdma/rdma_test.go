package rdma

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"demikernel/internal/fabric"
	"demikernel/internal/simclock"
)

var (
	macA = fabric.MAC{0x02, 0, 0, 0, 0, 0xA}
	macB = fabric.MAC{0x02, 0, 0, 0, 0, 0xB}
)

type rig struct {
	a, b *Device
}

func newRig(t *testing.T) *rig {
	t.Helper()
	model := simclock.Datacenter2019()
	sw := fabric.NewSwitch(&model, 11)
	return &rig{a: New(&model, sw, macA), b: New(&model, sw, macB)}
}

func (r *rig) pump() {
	for r.a.Poll()+r.b.Poll() > 0 {
	}
}

// connect builds a connected QP pair plus per-side PD/CQs.
func (r *rig) connect(t *testing.T) (cli, srv *QP, cliPD, srvPD *PD, cliSCQ, cliRCQ, srvSCQ, srvRCQ *CQ) {
	t.Helper()
	srvPD = r.b.AllocPD()
	srvSCQ, srvRCQ = r.b.CreateCQ(), r.b.CreateCQ()
	l, err := r.b.Listen(7, srvPD, srvSCQ, srvRCQ)
	if err != nil {
		t.Fatal(err)
	}
	cliPD = r.a.AllocPD()
	cliSCQ, cliRCQ = r.a.CreateCQ(), r.a.CreateCQ()
	cli = r.a.NewQP(cliPD, cliSCQ, cliRCQ)
	cli.Connect(macB, 7)
	r.pump()
	if !cli.Connected() {
		t.Fatal("client QP not connected")
	}
	srv, ok := l.Accept()
	if !ok {
		t.Fatal("no accepted QP")
	}
	return
}

func TestConnectionSetup(t *testing.T) {
	r := newRig(t)
	_, srv, _, _, _, _, _, _ := r.connect(t)
	if !srv.Connected() {
		t.Fatal("server QP not connected")
	}
}

func TestSendRecv(t *testing.T) {
	r := newRig(t)
	cli, srv, cliPD, srvPD, cliSCQ, _, _, srvRCQ := r.connect(t)

	msg := []byte("rdma two-sided send")
	sendBuf := cliPD.RegisterMemory(append([]byte(nil), msg...))
	recvBuf := srvPD.RegisterMemory(make([]byte, 64))

	if err := srv.PostRecv(42, Sge{MR: recvBuf, Off: 0, Len: 64}); err != nil {
		t.Fatal(err)
	}
	if err := cli.PostSend(7, Sge{MR: sendBuf, Off: 0, Len: len(msg)}); err != nil {
		t.Fatal(err)
	}
	r.pump()

	rwc := srvRCQ.Poll(8)
	if len(rwc) != 1 || rwc[0].Status != StatusSuccess || rwc[0].WRID != 42 {
		t.Fatalf("recv completions: %+v", rwc)
	}
	if !bytes.Equal(recvBuf.Bytes()[:rwc[0].Len], msg) {
		t.Fatalf("payload = %q", recvBuf.Bytes()[:rwc[0].Len])
	}
	if rwc[0].Cost == 0 {
		t.Fatal("no virtual cost on recv completion")
	}
	swc := cliSCQ.Poll(8)
	if len(swc) != 1 || swc[0].Status != StatusSuccess || swc[0].WRID != 7 {
		t.Fatalf("send completions: %+v", swc)
	}
}

func TestRNRWhenNoRecvPosted(t *testing.T) {
	// The paper: "allocating too few buffers causes communication to
	// fail."
	r := newRig(t)
	cli, _, cliPD, _, cliSCQ, _, _, _ := r.connect(t)
	sendBuf := cliPD.RegisterMemory([]byte("nobody home"))
	if err := cli.PostSend(1, Sge{MR: sendBuf, Off: 0, Len: sendBuf.Len()}); err != nil {
		t.Fatal(err)
	}
	r.pump()
	wc := cliSCQ.Poll(8)
	if len(wc) != 1 || wc[0].Status != StatusRNR {
		t.Fatalf("want RNR completion, got %+v", wc)
	}
	if r.b.Stats().RNRNaks != 1 {
		t.Fatalf("RNRNaks = %d", r.b.Stats().RNRNaks)
	}
}

func TestLenErrWhenRecvTooSmall(t *testing.T) {
	// "Receivers must allocate enough buffers of the right size."
	r := newRig(t)
	cli, srv, cliPD, srvPD, cliSCQ, _, _, srvRCQ := r.connect(t)
	sendBuf := cliPD.RegisterMemory(make([]byte, 128))
	recvBuf := srvPD.RegisterMemory(make([]byte, 16))
	srv.PostRecv(9, Sge{MR: recvBuf, Off: 0, Len: 16})
	cli.PostSend(8, Sge{MR: sendBuf, Off: 0, Len: 128})
	r.pump()
	if wc := cliSCQ.Poll(8); len(wc) != 1 || wc[0].Status != StatusLenErr {
		t.Fatalf("sender WC: %+v", wc)
	}
	if wc := srvRCQ.Poll(8); len(wc) != 1 || wc[0].Status != StatusLenErr {
		t.Fatalf("receiver WC: %+v", wc)
	}
}

func TestUnregisteredBufferRejected(t *testing.T) {
	r := newRig(t)
	cli, _, cliPD, _, _, _, _, _ := r.connect(t)
	mr := cliPD.RegisterMemory(make([]byte, 8))
	mr.Deregister()
	if err := cli.PostSend(1, Sge{MR: mr, Off: 0, Len: 8}); err == nil {
		t.Fatal("send from deregistered MR accepted")
	}
	if err := cli.PostSend(1, Sge{MR: nil, Off: 0, Len: 8}); err == nil {
		t.Fatal("send with nil MR accepted")
	}
}

func TestSgeBoundsChecked(t *testing.T) {
	r := newRig(t)
	cli, _, cliPD, _, _, _, _, _ := r.connect(t)
	mr := cliPD.RegisterMemory(make([]byte, 8))
	if err := cli.PostSend(1, Sge{MR: mr, Off: 4, Len: 8}); err == nil {
		t.Fatal("out-of-bounds sge accepted")
	}
}

func TestOneSidedWrite(t *testing.T) {
	r := newRig(t)
	cli, _, cliPD, srvPD, cliSCQ, _, _, srvRCQ := r.connect(t)

	remote := srvPD.RegisterMemory(make([]byte, 64))
	local := cliPD.RegisterMemory([]byte("one-sided write!"))

	if err := cli.PostWrite(5, Sge{MR: local, Off: 0, Len: local.Len()}, remote.RKey(), 8); err != nil {
		t.Fatal(err)
	}
	r.pump()
	if wc := cliSCQ.Poll(8); len(wc) != 1 || wc[0].Status != StatusSuccess || wc[0].Op != OpWrite {
		t.Fatalf("write WC: %+v", wc)
	}
	if !bytes.Equal(remote.Bytes()[8:8+local.Len()], local.Bytes()) {
		t.Fatalf("remote memory = %q", remote.Bytes())
	}
	// One-sided means silent on the remote: no receive completion.
	if wc := srvRCQ.Poll(8); len(wc) != 0 {
		t.Fatalf("remote saw completions for a one-sided write: %+v", wc)
	}
}

func TestOneSidedRead(t *testing.T) {
	r := newRig(t)
	cli, _, cliPD, srvPD, cliSCQ, _, _, _ := r.connect(t)
	remote := srvPD.RegisterMemory([]byte("remote content here"))
	local := cliPD.RegisterMemory(make([]byte, 6))
	if err := cli.PostRead(3, Sge{MR: local, Off: 0, Len: 6}, remote.RKey(), 7, 6); err != nil {
		t.Fatal(err)
	}
	r.pump()
	wc := cliSCQ.Poll(8)
	if len(wc) != 1 || wc[0].Status != StatusSuccess || wc[0].Op != OpRead {
		t.Fatalf("read WC: %+v", wc)
	}
	if string(local.Bytes()) != "conten" {
		t.Fatalf("read %q", local.Bytes())
	}
}

func TestRemoteAccessViolation(t *testing.T) {
	r := newRig(t)
	cli, _, cliPD, srvPD, cliSCQ, _, _, _ := r.connect(t)
	remote := srvPD.RegisterMemory(make([]byte, 16))
	local := cliPD.RegisterMemory(make([]byte, 64))
	// Write beyond the registered region.
	cli.PostWrite(1, Sge{MR: local, Off: 0, Len: 64}, remote.RKey(), 0)
	r.pump()
	if wc := cliSCQ.Poll(8); len(wc) != 1 || wc[0].Status != StatusRemoteAccess {
		t.Fatalf("WC: %+v", wc)
	}
	// Bogus rkey.
	cli.PostWrite(2, Sge{MR: local, Off: 0, Len: 4}, 0xdeadbeef, 0)
	r.pump()
	if wc := cliSCQ.Poll(8); len(wc) != 1 || wc[0].Status != StatusRemoteAccess {
		t.Fatalf("WC: %+v", wc)
	}
	if r.b.Stats().AccessNaks != 2 {
		t.Fatalf("AccessNaks = %d", r.b.Stats().AccessNaks)
	}
}

func TestSendBeforeConnectFails(t *testing.T) {
	r := newRig(t)
	pd := r.a.AllocPD()
	scq, rcq := r.a.CreateCQ(), r.a.CreateCQ()
	qp := r.a.NewQP(pd, scq, rcq)
	qp.Connect(macB, 99) // nobody listening
	mr := pd.RegisterMemory(make([]byte, 4))
	if err := qp.PostSend(1, Sge{MR: mr, Off: 0, Len: 4}); err != ErrQPState {
		t.Fatalf("err = %v, want ErrQPState", err)
	}
}

func TestManyMessagesInOrder(t *testing.T) {
	r := newRig(t)
	cli, srv, cliPD, srvPD, cliSCQ, _, _, srvRCQ := r.connect(t)
	const n = 50
	recvBuf := srvPD.RegisterMemory(make([]byte, n*8))
	for i := 0; i < n; i++ {
		srv.PostRecv(uint64(i), Sge{MR: recvBuf, Off: i * 8, Len: 8})
	}
	sendBuf := cliPD.RegisterMemory(make([]byte, 8))
	for i := 0; i < n; i++ {
		copy(sendBuf.Bytes(), []byte{byte(i), 0, 0, 0, 0, 0, 0, byte(i)})
		if err := cli.PostSend(uint64(i), Sge{MR: sendBuf, Off: 0, Len: 8}); err != nil {
			t.Fatal(err)
		}
		r.pump() // serialise so the shared send buffer can be reused
	}
	wcs := srvRCQ.Poll(0)
	if len(wcs) != n {
		t.Fatalf("got %d recv completions, want %d", len(wcs), n)
	}
	for i, wc := range wcs {
		if wc.WRID != uint64(i) || wc.Status != StatusSuccess {
			t.Fatalf("wc[%d] = %+v", i, wc)
		}
		if recvBuf.Bytes()[i*8] != byte(i) {
			t.Fatalf("message %d corrupted", i)
		}
	}
	if got := cliSCQ.Poll(0); len(got) != n {
		t.Fatalf("send completions = %d", len(got))
	}
}

func TestPinnedBytesAccounting(t *testing.T) {
	r := newRig(t)
	pd := r.a.AllocPD()
	mr := pd.RegisterMemory(make([]byte, 1024))
	if got := r.a.Stats().PinnedBytes; got != 1024 {
		t.Fatalf("pinned = %d", got)
	}
	mr.Deregister()
	if got := r.a.Stats().PinnedBytes; got != 0 {
		t.Fatalf("pinned after dereg = %d", got)
	}
}

func TestRegistrationCounted(t *testing.T) {
	r := newRig(t)
	pd := r.a.AllocPD()
	for i := 0; i < 5; i++ {
		pd.RegisterMemory(make([]byte, 64))
	}
	if got := r.a.Stats().Registrations; got != 5 {
		t.Fatalf("Registrations = %d", got)
	}
	if r.a.model.RegistrationNS == 0 {
		t.Fatal("registration must carry a cost")
	}
}

func TestPostedRecvCount(t *testing.T) {
	r := newRig(t)
	_, srv, _, srvPD, _, _, _, _ := r.connect(t)
	mr := srvPD.RegisterMemory(make([]byte, 64))
	srv.PostRecv(1, Sge{MR: mr, Off: 0, Len: 32})
	srv.PostRecv(2, Sge{MR: mr, Off: 32, Len: 32})
	if got := len(srv.recvQ); got != 2 {
		t.Fatalf("posted receives = %d", got)
	}
}

// TestRecvPostedAfterDestroyFlushes: a receive posted to a queue pair in
// the error state completes at once with StatusQPError, as the receives
// the destroy flushed did, so a libOS that reposts a receive as one
// completes never strands a buffer on a dead queue pair.
func TestRecvPostedAfterDestroyFlushes(t *testing.T) {
	r := newRig(t)
	_, srv, _, srvPD, _, _, _, srvRCQ := r.connect(t)
	mr := srvPD.RegisterMemory(make([]byte, 64))
	srv.PostRecv(1, Sge{MR: mr, Off: 0, Len: 32})
	srv.Destroy()
	srv.PostRecv(2, Sge{MR: mr, Off: 32, Len: 32})
	wcs := srvRCQ.Poll(0)
	if len(wcs) != 2 || len(srv.recvQ) != 0 {
		t.Fatalf("%d completions, %d receives left posted; want 2, 0", len(wcs), len(srv.recvQ))
	}
	for i, wc := range wcs {
		if wc.WRID != uint64(i+1) || wc.Status != StatusQPError {
			t.Fatalf("completion %d = WR %d %v, want WR %d flushed", i, wc.WRID, wc.Status, i+1)
		}
	}
}

// TestDestroyDisconnectsPeer: destroying one end of a connection tells
// the other (rdma_cm's DREQ): its queue pair errors and flushes its
// posted receives, without counting a QP error, and owes no disconnect
// back. LiveQPs counts each device's queue pairs not yet destroyed.
func TestDestroyDisconnectsPeer(t *testing.T) {
	r := newRig(t)
	cli, srv, cliPD, _, _, cliRCQ, _, _ := r.connect(t)
	if a, b := r.a.Stats().LiveQPs, r.b.Stats().LiveQPs; a != 1 || b != 1 {
		t.Fatalf("connected: %d and %d queue pairs live, want 1 and 1", a, b)
	}
	mr := cliPD.RegisterMemory(make([]byte, 64))
	cli.PostRecv(1, Sge{MR: mr, Off: 0, Len: 64})
	srv.Destroy()
	r.pump()
	wcs := cliRCQ.Poll(0)
	if len(wcs) != 1 || wcs[0].Status != StatusQPError || cli.Connected() {
		t.Fatalf("peer destroyed: client completions %+v, connected %v; want its receive flushed", wcs, cli.Connected())
	}
	if a, b := r.a.Stats(), r.b.Stats(); a.LiveQPs != 1 || b.LiveQPs != 0 || a.QPErrors+b.QPErrors != 0 {
		t.Fatalf("%d and %d queue pairs live, %d QP errors; want 1, 0, 0", a.LiveQPs, b.LiveQPs, a.QPErrors+b.QPErrors)
	}
	cli.Destroy()
	if n := r.a.Poll() + r.b.Poll(); n != 0 || r.a.Stats().LiveQPs != 0 {
		t.Fatalf("after both destroys: %d frames moved, %d queue pairs live; want 0, 0", n, r.a.Stats().LiveQPs)
	}
}

// TestTwoPollersOneDevice polls each device from two goroutines at once
// while the client streams sends: the fabric port has one reader at a
// time, so the receiver handles the frames in wire order and every send
// lands, in order, with no PSN gap erroring the queue pair. Run it under
// -race.
func TestTwoPollersOneDevice(t *testing.T) {
	r := newRig(t)
	cli, srv, cliPD, srvPD, _, _, _, srvRCQ := r.connect(t)
	const n = 200
	recvBuf := srvPD.RegisterMemory(make([]byte, n*8))
	for i := 0; i < n; i++ {
		srv.PostRecv(uint64(i), Sge{MR: recvBuf, Off: i * 8, Len: 8})
	}
	sendBuf := cliPD.RegisterMemory(make([]byte, n*8))
	for i := 0; i < n; i++ {
		sendBuf.Bytes()[i*8] = byte(i)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				r.b.Poll()
				r.a.Poll()
				runtime.Gosched()
			}
		}()
	}
	for i := 0; i < n; i++ {
		if err := cli.PostSend(uint64(i), Sge{MR: sendBuf, Off: i * 8, Len: 8}); err != nil {
			t.Fatal(err)
		}
	}
	var wcs []WC
	for deadline := time.Now().Add(5 * time.Second); len(wcs) < n && time.Now().Before(deadline); {
		wcs = append(wcs, srvRCQ.Poll(0)...)
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()
	if len(wcs) != n {
		t.Fatalf("got %d recv completions, want %d", len(wcs), n)
	}
	for i, wc := range wcs {
		if wc.WRID != uint64(i) || wc.Status != StatusSuccess {
			t.Fatalf("wc[%d] = %+v", i, wc)
		}
		if recvBuf.Bytes()[i*8] != byte(i) {
			t.Fatalf("message %d corrupted", i)
		}
	}
}
