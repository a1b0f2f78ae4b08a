package nic

import (
	"testing"

	"demikernel/internal/fabric"
	"demikernel/internal/shard"
)

// The receive queues' descriptor rings are shard.Rings of frames; these
// tables pin the behaviour the device relies on: capacity, drop on full,
// FIFO order across the wrap.

func frameN(n byte) fabric.Frame {
	return fabric.Frame{Data: []byte{n}}
}

func TestRingTable(t *testing.T) {
	cases := []struct {
		name      string
		depth     int
		wantCap   int
		pushes    int // frames pushed up front
		wantOK    int // pushes that should succeed
		pops      int // pops attempted after the pushes
		wantPops  int // pops that should succeed
		thenPush  int // pushes after the pops (exercises wrap)
		wantPush2 int
	}{
		{name: "empty pop", depth: 4, wantCap: 4, pushes: 0, wantOK: 0, pops: 2, wantPops: 0},
		{name: "fill to full then overflow", depth: 4, wantCap: 4, pushes: 6, wantOK: 4, pops: 4, wantPops: 4},
		{name: "rounds non-pow2 depth up", depth: 5, wantCap: 8, pushes: 9, wantOK: 8, pops: 8, wantPops: 8},
		{name: "wraparound reuse", depth: 4, wantCap: 4, pushes: 3, wantOK: 3, pops: 3, wantPops: 3, thenPush: 4, wantPush2: 4},
		{name: "depth one", depth: 1, wantCap: 2, pushes: 3, wantOK: 2, pops: 2, wantPops: 2, thenPush: 2, wantPush2: 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := shard.NewRing[fabric.Frame](c.depth)
			if r.Cap() != c.wantCap {
				t.Fatalf("NewRing(%d): cap %d, want %d", c.depth, r.Cap(), c.wantCap)
			}
			ok := 0
			for i := 0; i < c.pushes; i++ {
				if r.Push(frameN(byte(i))) {
					ok++
				}
			}
			if ok != c.wantOK {
				t.Fatalf("pushed %d ok, want %d", ok, c.wantOK)
			}
			if r.Len() != c.wantOK {
				t.Fatalf("len %d after pushes, want %d", r.Len(), c.wantOK)
			}
			got := 0
			for i := 0; i < c.pops; i++ {
				f, popped := r.Pop()
				if !popped {
					continue
				}
				// FIFO order: payload byte must match pop order.
				if f.Data[0] != byte(got) {
					t.Fatalf("pop %d returned frame %d, want %d", got, f.Data[0], got)
				}
				got++
			}
			if got != c.wantPops {
				t.Fatalf("popped %d, want %d", got, c.wantPops)
			}
			ok2 := 0
			for i := 0; i < c.thenPush; i++ {
				if r.Push(frameN(byte(100 + i))) {
					ok2++
				}
			}
			if ok2 != c.wantPush2 {
				t.Fatalf("second push round: %d ok, want %d", ok2, c.wantPush2)
			}
			// Drain everything; verify FIFO across the wrap.
			prev := -1
			for {
				f, popped := r.Pop()
				if !popped {
					break
				}
				if int(f.Data[0]) <= prev {
					t.Fatalf("out-of-order pop: %d after %d", f.Data[0], prev)
				}
				prev = int(f.Data[0])
			}
			if r.Len() != 0 {
				t.Fatalf("len %d after drain, want 0", r.Len())
			}
		})
	}
}
