package catmint_test

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	demi "demikernel"
	"demikernel/internal/libos/catmint"
)

// oneSidedRig builds a connected pair and returns the client's one-sided
// handle for the connection, plus a server window whose rkey was
// exchanged over an ordinary queue message (as a real application would).
func oneSidedRig(t *testing.T, seed int64, windowLen int) (
	cli *demi.Node, handle *catmint.OneSided, window *catmint.Window, cleanup func()) {
	t.Helper()
	c, srv, cliNode, clean := pair(t, seed)
	cqd, sqd := connect(t, c, srv, cliNode, 7)

	window = srv.Catmint.ExposeMemory(windowLen)
	// The server advertises (rkey, len) in-band.
	adv := make([]byte, 8)
	binary.BigEndian.PutUint32(adv[0:4], window.RKey())
	binary.BigEndian.PutUint32(adv[4:8], uint32(window.Len()))
	if _, err := srv.BlockingPush(sqd, demi.NewSGA(adv)); err != nil {
		t.Fatal(err)
	}
	comp, err := cliNode.BlockingPop(cqd)
	if err != nil {
		t.Fatal(err)
	}
	gotKey := binary.BigEndian.Uint32(comp.SGA.Bytes()[0:4])
	if gotKey != window.RKey() {
		t.Fatalf("rkey exchange corrupted: %d vs %d", gotKey, window.RKey())
	}

	// The one-sided handle wraps the client's connected endpoint. The
	// endpoint lives behind the core QD table; the transport finds it
	// through the Endpoint interface value stored there — the test digs
	// it out via the echo-style QD it already holds.
	ep, err := cliNode.EndpointOf(cqd)
	if err != nil {
		t.Fatal(err)
	}
	handle, err = cliNode.Catmint.OneSided(ep)
	if err != nil {
		t.Fatal(err)
	}
	return cliNode, handle, window, clean
}

func TestOneSidedWriteSilentOnServer(t *testing.T) {
	_, handle, window, cleanup := oneSidedRig(t, 101, 256)
	defer cleanup()

	done := make(chan catmint.WriteResult, 1)
	payload := []byte("written with no server code")
	if err := handle.Write(payload, window.RKey(), 16, func(r catmint.WriteResult) {
		done <- r
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Cost == 0 {
			t.Fatal("one-sided write carried no cost")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("write completion never arrived")
	}
	if !bytes.Equal(window.Bytes()[16:16+len(payload)], payload) {
		t.Fatalf("window = %q", window.Bytes()[:64])
	}
}

func TestOneSidedRead(t *testing.T) {
	_, handle, window, cleanup := oneSidedRig(t, 102, 128)
	defer cleanup()
	copy(window.Bytes()[32:], "server-resident data")

	done := make(chan catmint.ReadResult, 1)
	if err := handle.Read(20, window.RKey(), 32, func(r catmint.ReadResult) {
		done <- r
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if string(r.Data) != "server-resident data" {
			t.Fatalf("read %q", r.Data)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("read completion never arrived")
	}
}

func TestOneSidedAccessAfterRevoke(t *testing.T) {
	_, handle, window, cleanup := oneSidedRig(t, 103, 64)
	defer cleanup()
	window.Revoke()
	done := make(chan catmint.WriteResult, 1)
	if err := handle.Write([]byte("late"), window.RKey(), 0, func(r catmint.WriteResult) {
		done <- r
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		if r.Err == nil {
			t.Fatal("write to revoked window succeeded")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no completion for revoked access")
	}
}

func TestOneSidedOutOfBounds(t *testing.T) {
	_, handle, window, cleanup := oneSidedRig(t, 104, 32)
	defer cleanup()
	done := make(chan catmint.WriteResult, 1)
	if err := handle.Write(make([]byte, 64), window.RKey(), 0, func(r catmint.WriteResult) {
		done <- r
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		if r.Err == nil {
			t.Fatal("out-of-bounds write succeeded")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no completion")
	}
}
