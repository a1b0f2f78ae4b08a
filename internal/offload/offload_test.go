package offload

import (
	"fmt"
	"math/rand"
	"testing"

	"demikernel/internal/fabric"
	"demikernel/internal/nic"
	"demikernel/internal/simclock"
)

var (
	macA = fabric.MAC{0x02, 0, 0, 0, 0, 0xA}
	macB = fabric.MAC{0x02, 0, 0, 0, 0, 0xB}
)

func TestInstallDrop(t *testing.T) {
	model := simclock.Datacenter2019()
	sw := fabric.NewSwitch(&model, 1)
	a := nic.New(&model, sw, nic.Config{MAC: macA})
	b := nic.New(&model, sw, nic.Config{MAC: macB})

	InstallDrop(b, startsWithK)
	for _, p := range []string{"Keep", "drop", "Keep2"} {
		a.Tx(frameTo(p), 0)
	}
	got := b.RxBurst(0, 10)
	if len(got) != 2 {
		t.Fatalf("frames = %d, want 2", len(got))
	}
	if b.Stats().FilterDrops != 1 {
		t.Fatalf("FilterDrops = %d", b.Stats().FilterDrops)
	}
}

// frameTo is an Ethernet frame from macA to macB carrying payload.
func frameTo(payload string) []byte {
	return append(append(append(append([]byte{}, macB[:]...), macA[:]...), 0x08, 0x00), payload...)
}

// startsWithK keeps the frames whose payload starts with 'K'.
func startsWithK(f []byte) bool { return len(f) > 14 && f[14] == 'K' }

// TestCPUFilterAgreesWithSpec: the CPU fallback, the host running the
// filter over every received frame, keeps exactly the frames the device
// keeps once the filter is installed on it.
func TestCPUFilterAgreesWithSpec(t *testing.T) {
	kept := func(onDevice bool) (kept []string) {
		model := simclock.Datacenter2019()
		sw := fabric.NewSwitch(&model, 1)
		a := nic.New(&model, sw, nic.Config{MAC: macA})
		b := nic.New(&model, sw, nic.Config{MAC: macB})
		if onDevice {
			InstallDrop(b, startsWithK)
		}
		for _, p := range []string{"Keep", "drop", "K", "keep", "Keep2"} {
			a.Tx(frameTo(p), 0)
		}
		for _, f := range b.RxBurst(0, 16) {
			if onDevice || startsWithK(f.Data) {
				kept = append(kept, string(f.Data[14:]))
			}
		}
		return kept
	}
	cpu, dev := kept(false), kept(true)
	if fmt.Sprint(cpu) != fmt.Sprint(dev) || len(dev) != 3 {
		t.Fatalf("CPU kept %q, device kept %q; want the same 3", cpu, dev)
	}
}

// TestKeySteeringStable: every frame of a key lands on the same receive
// queue, and the keys spread over every queue.
func TestKeySteeringStable(t *testing.T) {
	model := simclock.Datacenter2019()
	sw := fabric.NewSwitch(&model, 2)
	a := nic.New(&model, sw, nic.Config{MAC: macA})
	b := nic.New(&model, sw, nic.Config{MAC: macB, RxQueues: 4})
	KeySteering(b, 4, func(f []byte) ([]byte, bool) {
		if len(f) < 20 {
			return nil, false
		}
		return f[14:20], true // first 6 payload bytes are the key
	})
	queueOf := map[string]int{}
	frames := 0
	for rep := 0; rep < 5; rep++ {
		for k := 0; k < 16; k++ {
			a.Tx(frameTo(fmt.Sprintf("key-%02d", k)), 0)
		}
		for q := 0; q < 4; q++ {
			for _, f := range b.RxBurst(q, 100) {
				key := string(f.Data[14:20])
				if prev, ok := queueOf[key]; ok && prev != q {
					t.Fatalf("key %q moved from queue %d to queue %d", key, prev, q)
				}
				queueOf[key] = q
				frames++
			}
		}
	}
	keysOn := make([]int, 4)
	for _, q := range queueOf {
		keysOn[q]++
	}
	if frames != 5*16 || len(queueOf) != 16 {
		t.Fatalf("%d frames of %d keys steered, want 80 of 16", frames, len(queueOf))
	}
	for q, n := range keysOn {
		if n == 0 {
			t.Fatalf("queue %d got no key (keys per queue %v)", q, keysOn)
		}
	}
}

func TestCacheSimSteeringBeatsSpray(t *testing.T) {
	// The §4.3 cache claim, in the small: key-affine placement yields a
	// higher hit ratio than random spraying.
	const nCores, capacity, nKeys, nAccesses = 4, 64, 128, 20000
	r := rand.New(rand.NewSource(7))

	steered := NewCacheSim(nCores, capacity)
	sprayed := NewCacheSim(nCores, capacity)
	for i := 0; i < nAccesses; i++ {
		key := fmt.Sprintf("key-%03d", r.Intn(nKeys))
		steered.Access(int(hashBytes([]byte(key)))%nCores, key)
		sprayed.Access(r.Intn(nCores), key)
	}
	if steered.HitRatio() <= sprayed.HitRatio() {
		t.Fatalf("steering (%.3f) should beat spraying (%.3f)",
			steered.HitRatio(), sprayed.HitRatio())
	}
	if steered.Hits()+steered.Misses() != nAccesses {
		t.Fatal("accounting broken")
	}
}

func TestLRUEviction(t *testing.T) {
	l := newLRU(2)
	if l.touch("a") {
		t.Fatal("first touch hit")
	}
	l.touch("b")
	if !l.touch("a") {
		t.Fatal("a evicted too early")
	}
	l.touch("c") // evicts b (LRU)
	if l.touch("b") {
		t.Fatal("b should have been evicted")
	}
	if !l.touch("c") {
		t.Fatal("c missing")
	}
}

func TestCacheSimEmpty(t *testing.T) {
	cs := NewCacheSim(2, 8)
	if cs.HitRatio() != 0 {
		t.Fatal("empty sim should report 0")
	}
}
