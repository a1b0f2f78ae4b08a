package catmint

import (
	"fmt"
	"testing"

	"demikernel/internal/core"
)

// idleQPs returns a server transport beside n established queue pairs
// that carry nothing, and its client: each pair's ready marker has
// completed, and its posted receives wait.
func idleQPs(tb testing.TB, n int) (srv, cli *Transport) {
	srv, cli, srvMAC, lis, settle := listening(tb)
	for i := 0; i < n; i++ {
		c, _ := cli.Socket()
		if err := c.Connect(core.Addr{MAC: srvMAC, Port: 7}); err != nil {
			tb.Fatal(err)
		}
	}
	settle()
	for i := 0; i < n; i++ {
		if _, ok, err := lis.Accept(); !ok || err != nil {
			tb.Fatalf("accept %d: ok=%v err=%v", i, ok, err)
		}
	}
	settle()
	return srv, cli
}

// TestIdlePollFindsNoDeadlines is the fence on what an idle Poll
// touches: beside 1 000 idle queue pairs, whose 32 posted receives each
// carry no deadline, the deadline FIFO of either side is empty — the
// ready markers that were in it have completed and gone — and a Poll
// allocates nothing. A count, not a timing.
func TestIdlePollFindsNoDeadlines(t *testing.T) {
	srv, cli := idleQPs(t, 1000)
	for name, tr := range map[string]*Transport{"server": srv, "client": cli} {
		tr.mu.Lock()
		deadlines, pending := tr.deadlines.Len(), len(tr.pending)
		tr.mu.Unlock()
		if deadlines != 0 || pending != 1000*DefaultPostedRecvs {
			t.Errorf("%s: %d deadlines, %d pending work requests; want 0, %d", name, deadlines, pending, 1000*DefaultPostedRecvs)
		}
		if allocs := testing.AllocsPerRun(1000, func() { tr.Poll() }); allocs != 0 {
			t.Errorf("%s: an idle Poll allocates %v times", name, allocs)
		}
	}
}

// BenchmarkCatmint_PollIdleQPs is a server's idle Poll beside 1, 100 and
// 1 000 idle queue pairs: it must read flat, because no receive a queue
// pair keeps posted is on any list a poll walks.
func BenchmarkCatmint_PollIdleQPs(b *testing.B) {
	for _, n := range []int{1, 100, 1000} {
		b.Run(fmt.Sprint(n, " QPs"), func(b *testing.B) {
			srv, _ := idleQPs(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				srv.Poll()
			}
		})
	}
}
