package demikernel

// Component microbenchmarks: the pieces of the data path that have no
// workload of their own in the repo benchmark. Everything end to end —
// echo, ring echo, idle connections, bulk transfer, HTTP, sharded KV,
// storage pushdown — is measured there (go run ./benchmark, workloads in
// BENCHMARK.json) and nowhere else. The netstack's microbenchmarks live
// beside it (internal/netstack), WaitAny's fan-in beside core; `make
// benchsmoke` runs one iteration of each so a broken rig fails tier1.

import (
	"testing"

	"demikernel/internal/queue"
	"demikernel/internal/sga"
	"demikernel/internal/uring"
)

// BenchmarkHotPath_Completer measures one qtoken round trip through a
// ring's token face: ArmToken → complete → TryWait.
func BenchmarkHotPath_Completer(b *testing.B) {
	p := uring.NewPair(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qt, done := p.ArmToken(0)
		done(queue.Completion{Kind: queue.OpPop})
		if _, ok, err := p.TryWait(qt); !ok || err != nil {
			b.Fatal("token did not complete")
		}
	}
}

// BenchmarkURing_SubmitHarvest isolates the ring itself — batch submit,
// slab completion, Harvest — over an in-memory queue with no netstack
// underneath.
// The 1 alloc/op here is MemQueue's element bookkeeping, not the ring:
// the network ring path is alloc-free (see TestHotPathAllocsRingEchoRTT).
func BenchmarkURing_SubmitHarvest(b *testing.B) {
	c := NewCluster(1)
	n := c.MustSpawn(Catnip, WithHost(1))
	qd := n.Queue()
	p := n.AttachRing(64)
	cqes := make([]uring.CQE, 64)
	payload := NewSGA(make([]byte, 64))
	sqes := []uring.SQE{
		{Op: queue.OpPush, QD: int32(qd), Tag: 1, SGA: payload},
		{Op: queue.OpPop, QD: int32(qd), Tag: 2},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if nn, err := n.SubmitBatch(p, sqes); err != nil || nn != 2 {
			b.Fatalf("submit: n=%d err=%v", nn, err)
		}
		got := 0
		for got < 2 {
			h := n.HarvestCQ(p, cqes)
			for j := 0; j < h; j++ {
				if cqes[j].Err != nil {
					b.Fatal(cqes[j].Err)
				}
				if cqes[j].Kind == queue.OpPop {
					cqes[j].SGA.Free()
				}
				cqes[j] = uring.CQE{}
			}
			got += h
		}
	}
}

// BenchmarkMemQueue measures the raw queue primitive under everything
// else: one push and one pop, which allocate nothing (it fails if they do).
func BenchmarkMemQueue(b *testing.B) {
	q := queue.NewMemQueue(1024)
	s := sga.New(make([]byte, 64))
	cycle := func() {
		q.Push(s, 0, func(queue.Completion) {})
		q.Pop(func(queue.Completion) {})
	}
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		b.Fatalf("%v allocs per push+pop", a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
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
