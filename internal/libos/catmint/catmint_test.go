package catmint_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	demi "demikernel"
	"demikernel/internal/libos/catmint"
)

func pair(t *testing.T, seed int64) (*demi.Cluster, *demi.Node, *demi.Node, func()) {
	t.Helper()
	c := demi.NewCluster(seed)
	srv := c.MustSpawn(demi.Catmint, demi.WithHost(1))
	cli := c.MustSpawn(demi.Catmint, demi.WithHost(2))
	stop1 := srv.Background()
	stop2 := cli.Background()
	return c, srv, cli, func() { stop2(); stop1() }
}

func connect(t *testing.T, c *demi.Cluster, srv, cli *demi.Node, port uint16) (cqd, sqd demi.QD) {
	t.Helper()
	lqd, err := srv.Socket()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Bind(lqd, demi.Addr{Port: port}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen(lqd); err != nil {
		t.Fatal(err)
	}
	cqd, err = cli.Socket()
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Connect(cqd, c.AddrOf(srv, port)); err != nil {
		t.Fatal(err)
	}
	sqd, err = srv.Accept(lqd)
	if err != nil {
		t.Fatal(err)
	}
	return cqd, sqd
}

func TestZeroCopyFromAllocSGA(t *testing.T) {
	c, srv, cli, cleanup := pair(t, 61)
	defer cleanup()
	cqd, sqd := connect(t, c, srv, cli, 7)

	// Registered path: AllocSGA buffers carry a pool token.
	s := cli.AllocSGA(256)
	copy(s.Segments[0].Buf, bytes.Repeat([]byte{0xAB}, 256))
	if _, err := cli.BlockingPush(cqd, s); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.BlockingPop(sqd); err != nil {
		t.Fatal(err)
	}
	if cli.Catmint.ZeroCopyTx() != 1 {
		t.Fatalf("ZeroCopyTx = %d, want 1", cli.Catmint.ZeroCopyTx())
	}
	if cli.Catmint.StagedCopies() != 0 {
		t.Fatalf("StagedCopies = %d, want 0", cli.Catmint.StagedCopies())
	}

	// Unregistered heap memory: the push must stage (and be counted).
	if _, err := cli.BlockingPush(cqd, demi.NewSGA(make([]byte, 256))); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.BlockingPop(sqd); err != nil {
		t.Fatal(err)
	}
	if cli.Catmint.StagedCopies() != 1 {
		t.Fatalf("StagedCopies = %d, want 1", cli.Catmint.StagedCopies())
	}
}

func TestMessageTooBigRejected(t *testing.T) {
	c, srv, cli, cleanup := pair(t, 62)
	defer cleanup()
	cqd, _ := connect(t, c, srv, cli, 7)
	huge := demi.NewSGA(make([]byte, catmint.SlotSize+1))
	comp, err := cli.BlockingPush(cqd, huge)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(comp.Err, catmint.ErrMessageTooBig) {
		t.Fatalf("err = %v", comp.Err)
	}
}

func TestArenaAmortisation(t *testing.T) {
	c, srv, cli, cleanup := pair(t, 63)
	defer cleanup()
	cqd, sqd := connect(t, c, srv, cli, 7)
	for i := 0; i < 50; i++ {
		if _, err := cli.BlockingPush(cqd, demi.NewSGA([]byte("msg"))); err != nil {
			t.Fatal(err)
		}
		comp, err := srv.BlockingPop(sqd)
		if err != nil {
			t.Fatal(err)
		}
		comp.SGA.Free() // return the recv slot so the pool stays small
	}
	if got := cli.Catmint.Arenas(); got > 2 {
		t.Fatalf("client arenas = %d; slot pool not being recycled", got)
	}
}

func TestPostedReceiveWindowMaintained(t *testing.T) {
	c, srv, cli, cleanup := pair(t, 64)
	defer cleanup()
	cqd, sqd := connect(t, c, srv, cli, 7)
	// Drive traffic through the posted window two and a half times over;
	// the libOS must keep re-posting receives so it never empties.
	for i := 0; i < 5*catmint.DefaultPostedRecvs/2; i++ {
		if _, err := cli.BlockingPush(cqd, demi.NewSGA([]byte("keepalive"))); err != nil {
			t.Fatal(err)
		}
		comp, err := srv.BlockingPop(sqd)
		if err != nil {
			t.Fatal(err)
		}
		comp.SGA.Free()
	}
	if rnr := srv.Catmint.Device().Stats().RNRNaks; rnr != 0 {
		t.Fatalf("libOS-managed receives hit RNR %d times", rnr)
	}
}

func TestBidirectional(t *testing.T) {
	c, srv, cli, cleanup := pair(t, 65)
	defer cleanup()
	cqd, sqd := connect(t, c, srv, cli, 7)
	if _, err := srv.BlockingPush(sqd, demi.NewSGA([]byte("server speaks first"))); err != nil {
		t.Fatal(err)
	}
	comp, err := cli.BlockingPop(cqd)
	if err != nil {
		t.Fatal(err)
	}
	if string(comp.SGA.Bytes()) != "server speaks first" {
		t.Fatalf("got %q", comp.SGA.Bytes())
	}
}

func TestSegmentationPreservedOverRDMA(t *testing.T) {
	c, srv, cli, cleanup := pair(t, 66)
	defer cleanup()
	cqd, sqd := connect(t, c, srv, cli, 7)
	s := demi.NewSGA([]byte("a"), nil, []byte("ccc"), []byte("dd"))
	if _, err := cli.BlockingPush(cqd, s); err != nil {
		t.Fatal(err)
	}
	comp, err := srv.BlockingPop(sqd)
	if err != nil {
		t.Fatal(err)
	}
	if comp.SGA.NumSegments() != 4 || !comp.SGA.Equal(s) {
		t.Fatalf("segmentation lost: %v", comp.SGA)
	}
}

func TestFeatures(t *testing.T) {
	_, srv, _, cleanup := pair(t, 67)
	defer cleanup()
	f := srv.Features()
	if !f.KernelBypass || !f.HWTransport {
		t.Fatalf("catmint features wrong: %+v", f)
	}
}

// TestConcurrentPollersDeliverInOrder: a node's Background poller and a
// blocking pop's own polls run Poll at the same time. Each takes a batch
// of receive completions off the device; the messages of one connection
// must still reach its pops in the order they arrived. The sender keeps
// at most half the posted receive window unpopped, so no push meets RNR.
func TestConcurrentPollersDeliverInOrder(t *testing.T) {
	c, srv, cli, cleanup := pair(t, 67)
	defer cleanup()
	cqd, sqd := connect(t, c, srv, cli, 7)
	const n = 2000
	credits := make(chan struct{}, catmint.DefaultPostedRecvs/2)
	for len(credits) < cap(credits) {
		credits <- struct{}{}
	}
	sent := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			<-credits
			comp, err := srv.BlockingPush(sqd, demi.NewSGA([]byte{byte(i >> 8), byte(i)}))
			if err == nil {
				err = comp.Err
			}
			if err != nil {
				sent <- fmt.Errorf("push %d: %w", i, err)
				return
			}
		}
		sent <- nil
	}()
	for i := 0; i < n; i++ {
		comp, err := cli.BlockingPop(cqd)
		if err == nil {
			err = comp.Err
		}
		if err != nil {
			t.Fatalf("pop %d: %v", i, err)
		}
		b := comp.SGA.Segments[0].Buf
		if got := int(b[0])<<8 | int(b[1]); got != i {
			t.Fatalf("pop %d returned message %d", i, got)
		}
		comp.SGA.Free()
		credits <- struct{}{}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
}
