package kv

import (
	"bytes"
	"fmt"
	"testing"

	demi "demikernel"
	"demikernel/internal/sga"
)

// harness is a staged client/server pair (Serve, Dial), stopped with the
// test. The same test bodies run over every libOS flavour (§4.1
// portability) and every shard width: width 1 is a plain node, width > 1
// a WithShards catnip node behind an RSS-aligned client.
type harness struct {
	cluster *demi.Cluster
	node    *demi.Node // the server's node
	cliNode *demi.Node
	server  *ShardedServer
	client  *ShardedClient
}

func newHarness(t *testing.T, kind demi.Kind, width int, seed int64) *harness {
	t.Helper()
	const port = 6379
	c := demi.NewCluster(seed)
	h := &harness{cluster: c, cliNode: c.MustSpawn(kind, demi.WithHost(2))}
	h.node = c.MustSpawn(kind, demi.WithHost(1), demi.WithShards(width))
	var err error
	var stop func()
	if h.server, stop, err = Serve(h.node.Libs(), h.node.Mesh(), width, &c.Model, port); err != nil {
		t.Fatalf("serve: %v", err)
	}
	t.Cleanup(stop)
	if h.client, stop, err = Dial(h.cliNode.LibOS, width, c.Router().Dialer(h.cliNode, h.node, port)); err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(stop)
	return h
}

// total sums the per-shard counters.
func (h *harness) total() ShardStats {
	var sum ShardStats
	for i := 0; i < h.server.Size(); i++ {
		s := h.server.StatsOf(i)
		sum.Gets += s.Gets
		sum.Sets += s.Sets
		sum.Dels += s.Dels
		sum.BytesStored += s.BytesStored
	}
	return sum
}

type shape struct {
	kind  demi.Kind
	width int
}

// allShapes is every libOS flavour at width 1 plus the sharded shape;
// catnipWidths is one flavour at both widths.
var (
	allShapes    = []shape{{demi.Catnip, 1}, {demi.Catnap, 1}, {demi.Catmint, 1}, {demi.Catnip, 2}}
	catnipWidths = []shape{{demi.Catnip, 1}, {demi.Catnip, 2}}
)

// forEachShape runs one client-visible script against every shape.
func forEachShape(t *testing.T, shapes []shape, seed int64, body func(t *testing.T, h *harness)) {
	for i, sh := range shapes {
		sh, seed := sh, seed+int64(i)
		t.Run(fmt.Sprintf("%s-w%d", sh.kind, sh.width), func(t *testing.T) {
			body(t, newHarness(t, sh.kind, sh.width, seed))
		})
	}
}

func TestKVBasicOps(t *testing.T) {
	forEachShape(t, allShapes, 21, func(t *testing.T, h *harness) {
		cli := h.client

		// Missing key.
		if _, _, found, err := cli.Get("nope"); err != nil || found {
			t.Fatalf("get missing: found=%v err=%v", found, err)
		}
		// Set then get.
		if _, err := cli.Set("k1", []byte("value-1")); err != nil {
			t.Fatal(err)
		}
		val, _, found, err := cli.Get("k1")
		if err != nil || !found {
			t.Fatalf("get: found=%v err=%v", found, err)
		}
		if string(val) != "value-1" {
			t.Fatalf("val = %q", val)
		}
		// Overwrite.
		if _, err := cli.Set("k1", []byte("value-2!")); err != nil {
			t.Fatal(err)
		}
		val, _, _, _ = cli.Get("k1")
		if string(val) != "value-2!" {
			t.Fatalf("overwritten val = %q", val)
		}
		if st := h.total(); st.BytesStored != int64(len("value-2!")) {
			t.Fatalf("BytesStored = %d after overwrite, want %d", st.BytesStored, len("value-2!"))
		}
		// Delete.
		if found, err := cli.Del("k1"); err != nil || !found {
			t.Fatalf("del: found=%v err=%v", found, err)
		}
		if found, _ := cli.Del("k1"); found {
			t.Fatal("double delete reported found")
		}
		if _, _, found, _ := cli.Get("k1"); found {
			t.Fatal("deleted key still readable")
		}

		st := h.total()
		if st.Sets != 2 || st.Gets != 4 || st.Dels != 2 || st.BytesStored != 0 {
			t.Fatalf("stats = %+v", st)
		}
	})
}

func TestKVLargeValues(t *testing.T) {
	forEachShape(t, catnipWidths, 24, func(t *testing.T, h *harness) {
		val := bytes.Repeat([]byte{0xAB}, 8000)
		if _, err := h.client.Set("big", val); err != nil {
			t.Fatal(err)
		}
		got, _, found, err := h.client.Get("big")
		if err != nil || !found {
			t.Fatalf("found=%v err=%v", found, err)
		}
		if !bytes.Equal(got, val) {
			t.Fatal("large value corrupted")
		}
	})
}

func TestKVManyKeys(t *testing.T) {
	forEachShape(t, catnipWidths, 26, func(t *testing.T, h *harness) {
		for i := 0; i < 50; i++ {
			key := string(rune('a'+i%26)) + string(rune('0'+i/26))
			if _, err := h.client.Set(key, []byte{byte(i)}); err != nil {
				t.Fatalf("set %d: %v", i, err)
			}
		}
		if h.server.Len() != 50 {
			t.Fatalf("stored keys = %d", h.server.Len())
		}
		for i := 0; i < 50; i++ {
			key := string(rune('a'+i%26)) + string(rune('0'+i/26))
			val, _, found, err := h.client.Get(key)
			if err != nil || !found || val[0] != byte(i) {
				t.Fatalf("get %q: %v %v %v", key, val, found, err)
			}
		}
	})
}

// applyServer is a width-1 server whose one worker the Apply tests
// drive directly, with no connection in the way.
func applyServer(seed int64) (*ShardedServer, *shardWorker) {
	c := demi.NewCluster(seed)
	node := c.MustSpawn(demi.Catnip, demi.WithHost(1))
	srv := NewServer(node.LibOS, &c.Model)
	return srv, srv.workers[0]
}

func TestApplyMalformedRequests(t *testing.T) {
	srv, w := applyServer(26)

	resp, _, retain := w.apply(sga.New([]byte("GET"))) // missing key
	if retain || string(resp.Segments[0].Buf) != StatusError {
		t.Fatalf("resp = %v", resp)
	}
	resp, _, _ = w.apply(sga.New([]byte("SET"), []byte("k"))) // missing value
	if string(resp.Segments[0].Buf) != StatusError {
		t.Fatalf("resp = %v", resp)
	}
	resp, _, _ = w.apply(sga.New([]byte("WAT"), []byte("k")))
	if string(resp.Segments[0].Buf) != StatusError {
		t.Fatalf("resp = %v", resp)
	}
	if n := srv.StatsOf(0).BadRequests; n != 3 {
		t.Fatalf("BadRequests = %d", n)
	}
}

func TestApplyZeroCopySetRetains(t *testing.T) {
	// The SET request's value segment must be stored by reference: the
	// paper's pointer-swap discipline, not a copy.
	_, w := applyServer(27)

	val := []byte("owned-by-store")
	req := sga.New([]byte(OpSet), []byte("k"), val)
	resp, _, retain := w.apply(req)
	if !retain {
		t.Fatal("SET must retain the request SGA")
	}
	if string(resp.Segments[0].Buf) != StatusOK {
		t.Fatalf("resp = %v", resp)
	}
	getResp, pin, retain2 := w.apply(sga.New([]byte(OpGet), []byte("k")))
	defer pin.release()
	if retain2 {
		t.Fatal("GET must not retain")
	}
	// Mutating the original buffer must be visible through GET: proof
	// the store aliases rather than copies.
	val[0] = 'X'
	if getResp.Segments[1].Buf[0] != 'X' {
		t.Fatal("store copied the value instead of retaining the buffer")
	}
}

func TestSetOverwriteFreesOldBuffer(t *testing.T) {
	_, w := applyServer(28)

	freed := 0
	old := sga.New([]byte(OpSet), []byte("k"), []byte("old")).WithFree(func() { freed++ })
	w.apply(old)
	w.apply(sga.New([]byte(OpSet), []byte("k"), []byte("new")))
	if freed != 1 {
		t.Fatalf("old buffer freed %d times, want 1 (free-protection handoff)", freed)
	}
	resp, pin, _ := w.apply(sga.New([]byte(OpGet), []byte("k")))
	defer pin.release()
	if string(resp.Segments[1].Buf) != "new" {
		t.Fatalf("value = %q", resp.Segments[1].Buf)
	}
}
