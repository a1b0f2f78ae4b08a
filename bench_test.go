package demikernel

// One testing.B benchmark per experiment in the DESIGN.md index
// (E1..E13). The experiment harness (internal/experiments, run via
// cmd/demi-bench) reports deterministic *virtual* latencies from the cost
// model; these benchmarks measure the *real* execution cost of the same
// code paths, so regressions in the simulation itself are visible.

import (
	"fmt"
	"sync"
	"testing"

	"demikernel/internal/apps/echo"
	"demikernel/internal/apps/kv"
	"demikernel/internal/fabric"
	"demikernel/internal/kernel"
	"demikernel/internal/membuf"
	"demikernel/internal/netstack"
	"demikernel/internal/nic"
	"demikernel/internal/offload"
	"demikernel/internal/queue"
	"demikernel/internal/rdma"
	"demikernel/internal/sga"
	"demikernel/internal/simclock"
	"demikernel/internal/spdk"
)

// benchEchoRig builds an echo pair over a flavor for RTT benchmarks.
func benchEchoRig(b *testing.B, flavor string, extra Lat) (*echo.Client, func()) {
	b.Helper()
	c := NewCluster(1)
	mk := func(host byte) *Node {
		switch flavor {
		case "catnip":
			return c.MustSpawn(Catnip, WithConfig(NodeConfig{Host: host, PerPacketExtra: extra}))
		case "catnap":
			return c.MustSpawn(Catnap, WithConfig(NodeConfig{Host: host, PerPacketExtra: extra}))
		case "catmint":
			return c.MustSpawn(Catmint, WithHost(host))
		default:
			b.Fatalf("flavor %q", flavor)
			return nil
		}
	}
	srvNode, cliNode := mk(1), mk(2)
	srv := echo.NewServer(srvNode.LibOS)
	if err := srv.Listen(7); err != nil {
		b.Fatal(err)
	}
	stopS := srvNode.Background()
	stopC := cliNode.Background()
	stopServe := make(chan struct{})
	go srv.Run(stopServe)
	cli := echo.NewClient(cliNode.LibOS)
	if err := cli.Connect(c.AddrOf(srvNode, 7)); err != nil {
		b.Fatal(err)
	}
	return cli, func() { close(stopServe); stopC(); stopS() }
}

// BenchmarkE1_DataPath measures echo RTT over the legacy kernel path and
// the kernel-bypass path (Figure 1).
func BenchmarkE1_DataPath(b *testing.B) {
	for _, flavor := range []string{"catnap", "catnip"} {
		for _, size := range []int{64, 4096} {
			b.Run(fmt.Sprintf("%s/%dB", flavor, size), func(b *testing.B) {
				cli, cleanup := benchEchoRig(b, flavor, 0)
				defer cleanup()
				payload := make([]byte, size)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := cli.RTT(payload, 0); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkE2_Taxonomy measures the cost of the portable socket control
// path per libOS (Table 1: same API, different devices).
func BenchmarkE2_Taxonomy(b *testing.B) {
	for _, flavor := range []string{"catnap", "catnip", "catmint"} {
		b.Run(flavor, func(b *testing.B) {
			c := NewCluster(1)
			var node *Node
			switch flavor {
			case "catnap":
				node = c.MustSpawn(Catnap, WithHost(1))
			case "catnip":
				node = c.MustSpawn(Catnip, WithHost(1))
			case "catmint":
				node = c.MustSpawn(Catmint, WithHost(1))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				qd, err := node.Socket()
				if err != nil {
					b.Fatal(err)
				}
				node.Close(qd)
			}
		})
	}
}

// BenchmarkE3_ZeroCopy measures a 4KB KV GET over the copy path and the
// zero-copy path (§3.2).
func BenchmarkE3_ZeroCopy(b *testing.B) {
	for _, flavor := range []string{"catnap", "catnip"} {
		b.Run(flavor, func(b *testing.B) {
			c := NewCluster(1)
			var srvNode, cliNode *Node
			if flavor == "catnap" {
				srvNode, cliNode = c.MustSpawn(Catnap, WithHost(1)), c.MustSpawn(Catnap, WithHost(2))
			} else {
				srvNode, cliNode = c.MustSpawn(Catnip, WithHost(1)), c.MustSpawn(Catnip, WithHost(2))
			}
			srv := kv.NewServer(srvNode.LibOS, &c.Model)
			if err := srv.Listen(6379); err != nil {
				b.Fatal(err)
			}
			defer srvNode.Background()()
			defer cliNode.Background()()
			stop := make(chan struct{})
			defer close(stop)
			srv.Run(stop)
			cli := kv.NewClient(cliNode.LibOS)
			if err := cli.Connect(c.AddrOf(srvNode, 6379)); err != nil {
				b.Fatal(err)
			}
			if _, err := cli.Set("k", make([]byte, 4096)); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, found, err := cli.Get("k"); err != nil || !found {
					b.Fatalf("found=%v err=%v", found, err)
				}
			}
		})
	}
}

// BenchmarkE4_AtomicUnits compares discovering a complete request via
// stream re-parsing (POSIX) against an atomic queue pop (§3.2).
func BenchmarkE4_AtomicUnits(b *testing.B) {
	payload := sga.New(make([]byte, 1024))
	framed := payload.Marshal()
	b.Run("stream-reassembly", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var f sga.Framer
			// The request arrives in 8 fragments; the server re-checks
			// completeness on each.
			frag := len(framed) / 8
			for j := 0; j < 8; j++ {
				hi := (j + 1) * frag
				if j == 7 {
					hi = len(framed)
				}
				f.Feed(framed[j*frag : hi])
				f.HasCompleteFrame()
			}
			if _, ok, _ := f.Next(); !ok {
				b.Fatal("frame lost")
			}
		}
	})
	b.Run("atomic-queue-pop", func(b *testing.B) {
		q := queue.NewMemQueue(0)
		for i := 0; i < b.N; i++ {
			q.Push(payload, 0, func(queue.Completion) {})
			got := false
			q.Pop(func(c queue.Completion) { got = c.Err == nil })
			if !got {
				b.Fatal("pop failed")
			}
		}
	})
}

// BenchmarkE5_Wakeups compares completion delivery: epoll wake-all vs
// qtoken wake-one (§4.4).
func BenchmarkE5_Wakeups(b *testing.B) {
	b.Run("epoll-herd", func(b *testing.B) {
		model := simclock.Datacenter2019()
		k := kernel.New(&model, nil, netstack.IPv4Addr{})
		r, w, _ := k.Pipe()
		ep := k.EpollCreate()
		ep.Add(r)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k.WritePipe(w, []byte{1}, 0)
			if fds, _ := ep.TryWait(); len(fds) == 0 {
				b.Fatal("not ready")
			}
			k.ReadPipe(r, 0)
		}
	})
	b.Run("qtoken-wake-one", func(b *testing.B) {
		completer := queue.NewCompleter()
		q := queue.NewMemQueue(0)
		payload := sga.New([]byte{1})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			qt, done := completer.NewToken()
			q.Pop(done)
			q.Push(payload, 0, func(queue.Completion) {})
			if _, ok, _ := completer.TryWait(qt); !ok {
				b.Fatal("not complete")
			}
		}
	})
}

// BenchmarkE6_PosixUserStack measures the POSIX-emulation tax on a user
// stack (§6).
func BenchmarkE6_PosixUserStack(b *testing.B) {
	model := simclock.Datacenter2019()
	configs := []struct {
		name  string
		extra Lat
	}{
		{"demikernel", 0},
		{"mTCP-style", model.PosixEmulationNS},
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			cli, cleanup := benchEchoRig(b, "catnip", cfg.extra)
			defer cleanup()
			payload := make([]byte, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cli.RTT(payload, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE7_Memory measures buffer acquisition: explicit per-buffer
// registration vs the libOS slab (§4.5).
func BenchmarkE7_Memory(b *testing.B) {
	model := simclock.Datacenter2019()
	b.Run("explicit-registration", func(b *testing.B) {
		sw := fabric.NewSwitch(&model, 1)
		dev := rdma.New(&model, sw, fabric.MAC{2, 0, 0, 0, 0, 1})
		pd := dev.AllocPD()
		buf := make([]byte, 4096)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mr := pd.RegisterMemory(buf)
			mr.Deregister()
		}
	})
	b.Run("libos-slab", func(b *testing.B) {
		mem := membuf.NewManager(&model)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf := mem.Alloc(4096)
			buf.Free()
		}
	})
}

// BenchmarkE8_FilterOffload measures per-frame classification with the
// filter on the host CPU vs on the device (§4.2).
func BenchmarkE8_FilterOffload(b *testing.B) {
	model := simclock.Datacenter2019()
	mkPair := func(install bool) (*nic.Device, *nic.Device) {
		sw := fabric.NewSwitch(&model, 1)
		tx := nic.New(&model, sw, nic.Config{MAC: fabric.MAC{2, 0, 0, 0, 0, 1}})
		rx := nic.New(&model, sw, nic.Config{MAC: fabric.MAC{2, 0, 0, 0, 0, 2}, RingDepth: 4096})
		if install {
			offload.InstallDrop(rx, offload.FilterSpec{
				Frame: func(f []byte) bool { return len(f) > 14 && f[14] == 'K' },
			})
		}
		return tx, rx
	}
	frame := func(k byte) []byte {
		f := append(append([]byte{2, 0, 0, 0, 0, 2}, 2, 0, 0, 0, 0, 1), 0x08, 0x00)
		return append(f, k, 1, 2, 3)
	}
	b.Run("cpu-filter", func(b *testing.B) {
		tx, rx := mkPair(false)
		match := func(f []byte) bool { return len(f) > 14 && f[14] == 'K' }
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tx.Tx(frame(byte('K'-byte(i%2))), 0)
			for _, fr := range rx.RxBurst(0, 8) {
				_ = match(fr.Data)
			}
		}
	})
	b.Run("device-filter", func(b *testing.B) {
		tx, rx := mkPair(true)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tx.Tx(frame(byte('K'-byte(i%2))), 0)
			rx.RxBurst(0, 8)
		}
	})
}

// BenchmarkE9_Portability runs the identical echo op over all three
// network libOSes (§4.1).
func BenchmarkE9_Portability(b *testing.B) {
	for _, flavor := range []string{"catnap", "catnip", "catmint"} {
		b.Run(flavor, func(b *testing.B) {
			cli, cleanup := benchEchoRig(b, flavor, 0)
			defer cleanup()
			payload := make([]byte, 256)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cli.RTT(payload, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE10_SortQueue measures pops through the priority view vs
// plain FIFO (§4.3).
func BenchmarkE10_SortQueue(b *testing.B) {
	item := func(i int) sga.SGA { return sga.New([]byte{byte(i % 7)}) }
	b.Run("fifo", func(b *testing.B) {
		q := queue.NewMemQueue(1 << 20)
		for i := 0; i < b.N; i++ {
			q.Push(item(i), 0, func(queue.Completion) {})
			q.Pop(func(queue.Completion) {})
		}
	})
	b.Run("sorted", func(b *testing.B) {
		base := queue.NewMemQueue(1 << 20)
		s := queue.NewSortQueue(base, func(a, x sga.SGA) bool {
			return a.Segments[0].Buf[0] < x.Segments[0].Buf[0]
		}, 8)
		for i := 0; i < b.N; i++ {
			base.Push(item(i), 0, func(queue.Completion) {})
			s.Pump()
			s.Pop(func(queue.Completion) {})
		}
	})
}

// BenchmarkE11_Framing measures SGA marshal + reassembly throughput
// (§5.2).
func BenchmarkE11_Framing(b *testing.B) {
	s := sga.New(make([]byte, 100), make([]byte, 1000), make([]byte, 16))
	wire := s.Marshal()
	b.SetBytes(int64(len(wire)))
	var f sga.Framer
	for i := 0; i < b.N; i++ {
		f.Feed(wire)
		if _, ok, err := f.Next(); !ok || err != nil {
			b.Fatalf("ok=%v err=%v", ok, err)
		}
	}
}

// BenchmarkE12_Storage measures durable record appends: log layout vs
// kernel FS write+fsync (§5.3).
func BenchmarkE12_Storage(b *testing.B) {
	model := simclock.Datacenter2019()
	rec := make([]byte, 512)
	b.Run("catfish-log", func(b *testing.B) {
		dev := spdk.New(&model, spdk.Config{NumBlocks: 1 << 20})
		store, _, err := spdk.NewStore(dev)
		if err != nil {
			b.Fatal(err)
		}
		f, _, err := store.Open("bench")
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := f.Append(rec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("kernel-fs", func(b *testing.B) {
		k := kernel.New(&model, nil, netstack.IPv4Addr{})
		k.AttachDisk(spdk.New(&model, spdk.Config{NumBlocks: 1 << 20}))
		fd, _, err := k.OpenFile("bench")
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := k.WriteFile(fd, rec); err != nil {
				b.Fatal(err)
			}
			if _, err := k.Fsync(fd); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE13_RecvBuffers measures a two-sided RDMA send/recv round
// with libOS-style re-posting (§2).
func BenchmarkE13_RecvBuffers(b *testing.B) {
	model := simclock.Datacenter2019()
	sw := fabric.NewSwitch(&model, 1)
	snd := rdma.New(&model, sw, fabric.MAC{2, 0, 0, 0, 0, 1})
	rcv := rdma.New(&model, sw, fabric.MAC{2, 0, 0, 0, 0, 2})
	rpd := rcv.AllocPD()
	rscq, rrcq := rcv.CreateCQ(), rcv.CreateCQ()
	l, err := rcv.Listen(9, rpd, rscq, rrcq)
	if err != nil {
		b.Fatal(err)
	}
	spd := snd.AllocPD()
	sscq, srcq := snd.CreateCQ(), snd.CreateCQ()
	qp := snd.NewQP(spd, sscq, srcq)
	qp.Connect(rcv.MAC(), 9)
	for snd.Poll()+rcv.Poll() > 0 {
	}
	rqp, ok := l.Accept()
	if !ok {
		b.Fatal("no accepted QP")
	}
	recvMR := rpd.RegisterMemory(make([]byte, 4096))
	sendMR := spd.RegisterMemory(make([]byte, 1024))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rqp.PostRecv(uint64(i), rdma.Sge{MR: recvMR, Off: 0, Len: 4096}); err != nil {
			b.Fatal(err)
		}
		if err := qp.PostSend(uint64(i), rdma.Sge{MR: sendMR, Off: 0, Len: 1024}); err != nil {
			b.Fatal(err)
		}
		for snd.Poll()+rcv.Poll() > 0 {
		}
		if wcs := rrcq.Poll(0); len(wcs) != 1 || wcs[0].Status != rdma.StatusSuccess {
			b.Fatalf("wcs=%v", wcs)
		}
		sscq.Poll(0)
	}
}

// BenchmarkMemQueue measures the raw queue primitive (baseline for all
// of the above).
func BenchmarkMemQueue(b *testing.B) {
	q := queue.NewMemQueue(1024)
	s := sga.New(make([]byte, 64))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(s, 0, func(queue.Completion) {})
		q.Pop(func(queue.Completion) {})
	}
}

// BenchmarkCompleter measures token allocation + completion + wait.
func BenchmarkCompleter(b *testing.B) {
	c := queue.NewCompleter()
	for i := 0; i < b.N; i++ {
		qt, done := c.NewToken()
		done(queue.Completion{Kind: queue.OpPop})
		if _, ok, _ := c.TryWait(qt); !ok {
			b.Fatal("lost completion")
		}
	}
}

// BenchmarkSGAMarshal measures wire encoding alone.
func BenchmarkSGAMarshal(b *testing.B) {
	s := sga.New(make([]byte, 4096))
	b.SetBytes(int64(s.MarshalledSize()))
	buf := make([]byte, 0, s.MarshalledSize())
	for i := 0; i < b.N; i++ {
		buf = s.AppendMarshal(buf[:0])
	}
	_ = buf
}

// BenchmarkMultiShard_KV drives the RSS-sharded KV server at 1/2/4/8
// shards with an aligned client and reports, next to the real execution
// cost per GET, the *virtual* scaling metric the sharded runtime is
// judged by: vkops/s = served ops / the busiest shard's modeled
// single-core busy time (see kv.ShardedServer.BusyVirt). Real wall
// clock cannot show multi-core scaling inside a simulation pinned to
// whatever cores the host has; the virtual curve is deterministic.
// `make bench` persists the same curve via `demi-bench -shards 8` into
// BENCH_multishard.json.
func BenchmarkMultiShard_KV(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			c := NewCluster(1)
			srvNode := c.MustSpawn(Catnip, WithHost(1), WithShards(n)).Sharded
			cliNode := c.MustSpawn(Catnip, WithHost(2))
			server := kv.NewShardedServer(srvNode.Libs, &c.Model, srvNode.Mesh())
			const port = 6379
			if err := server.Listen(port); err != nil {
				b.Fatal(err)
			}
			stop := make(chan struct{})
			wg := server.Run(stop)
			stopCli := cliNode.Background()
			defer func() { close(stop); wg.Wait(); stopCli() }()
			client, err := kv.NewShardedClient(cliNode.LibOS, n, func(i int) (QD, error) {
				return c.Router().DialShard(cliNode, srvNode, port, i, uint16(4096*i+31))
			})
			if err != nil {
				b.Fatal(err)
			}
			defer client.Close()

			const nkeys = 64
			keys := make([]string, nkeys)
			val := make([]byte, 32)
			for i := range keys {
				keys[i] = fmt.Sprintf("bench-%03d", i)
				if _, err := client.Set(keys[i], val); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, found, err := client.Get(keys[i%nkeys]); err != nil || !found {
					b.Fatalf("get: found=%v err=%v", found, err)
				}
			}
			b.StopTimer()
			ops := server.TotalOps()
			var maxBusy, forwards int64
			for i := 0; i < n; i++ {
				if busy := server.BusyVirt(i); busy > maxBusy {
					maxBusy = busy
				}
				forwards += server.StatsOf(i).ForwardedOut
			}
			if forwards != 0 {
				b.Fatalf("aligned benchmark crossed the mesh %d times", forwards)
			}
			if maxBusy > 0 {
				b.ReportMetric(float64(ops)/(float64(maxBusy)/1e9)/1e3, "vkops/s")
			}
		})
	}
}

var benchSink sync.Once // silences unused-import pressure in refactors
