package kernel

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"demikernel/internal/simclock"
	"demikernel/internal/spdk"
)

// TestRecvWouldBlock: a read of a descriptor with nothing in it and a
// writer still open does not block the caller — it fails with
// ErrWouldBlock, and the caller polls again.
func TestRecvWouldBlock(t *testing.T) {
	model := simclock.Datacenter2019()
	k := New(&model)
	r, _, _ := k.Pipe()
	if _, _, err := k.ReadPipe(r, 0); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("err = %v", err)
	}
}

func TestCloseInvalidFD(t *testing.T) {
	model := simclock.Datacenter2019()
	k := New(&model)
	if _, err := k.Close(999); !errors.Is(err, ErrBadFD) {
		t.Fatalf("err = %v", err)
	}
}

// --- pipes ---

func TestPipeStreamSemantics(t *testing.T) {
	model := simclock.Datacenter2019()
	k := New(&model)
	r, w, _ := k.Pipe()

	// Two logical messages written separately...
	k.WritePipe(w, []byte("messageA|"), 0)
	k.WritePipe(w, []byte("messageB|"), 0)
	// ...arrive as one undifferentiated byte stream.
	got, _, err := k.ReadPipe(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "messageA|messageB|" {
		t.Fatalf("got %q", got)
	}
	// Partial reads are the norm.
	k.WritePipe(w, []byte("0123456789"), 0)
	part, _, _ := k.ReadPipe(r, 4)
	if string(part) != "0123" {
		t.Fatalf("partial read = %q", part)
	}
	rest, _, _ := k.ReadPipe(r, 0)
	if string(rest) != "456789" {
		t.Fatalf("rest = %q", rest)
	}
}

func TestPipeEOF(t *testing.T) {
	model := simclock.Datacenter2019()
	k := New(&model)
	r, w, _ := k.Pipe()
	k.WritePipe(w, []byte("last"), 0)
	k.Close(w)
	if got, _, err := k.ReadPipe(r, 0); err != nil || string(got) != "last" {
		t.Fatalf("got %q err %v", got, err)
	}
	if _, _, err := k.ReadPipe(r, 0); !errors.Is(err, io.EOF) {
		t.Fatalf("err = %v, want EOF", err)
	}
}

func TestPipeBackpressure(t *testing.T) {
	model := simclock.Datacenter2019()
	k := New(&model)
	_, w, _ := k.Pipe()
	big := make([]byte, pipeCapacity+1000)
	n, _, err := k.WritePipe(w, big, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != pipeCapacity {
		t.Fatalf("accepted %d, want %d", n, pipeCapacity)
	}
}

// --- epoll ---

func TestEpollThunderingHerd(t *testing.T) {
	model := simclock.Datacenter2019()
	k := New(&model)
	r, w, _ := k.Pipe()
	ep := k.EpollCreate()
	ep.Add(r)

	const nWaiters = 8
	var started, winners atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < nWaiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			started.Add(1)
			fds, _, ok := ep.Wait()
			if ok && len(fds) > 0 {
				winners.Add(1)
			}
		}()
	}
	// Let all waiters block.
	for started.Load() < nWaiters {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)

	k.WritePipe(w, []byte("one event"), 0)
	k.refreshReadiness(ep) // event delivery: wakes the whole herd

	// Exactly one waiter should win. Close only once every waiter has
	// recorded its wakeup: a loser that wakes to a closed instance does
	// not count its wakeup as wasted.
	deadline := time.Now().Add(2 * time.Second)
	for k.Counters().Wakeups < nWaiters && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	woken := k.Counters()
	ep.Close()
	wg.Wait()
	if woken.Wakeups < nWaiters {
		t.Fatalf("after 2s: Wakeups = %d, WastedWakeups = %d, want %d woken before Close",
			woken.Wakeups, woken.WastedWakeups, nWaiters)
	}
	if winners.Load() != 1 {
		t.Fatalf("winners = %d, want 1", winners.Load())
	}
	ctr := k.Counters()
	if ctr.Wakeups < nWaiters {
		t.Fatalf("Wakeups = %d, want >= %d (herd)", ctr.Wakeups, nWaiters)
	}
	if ctr.WastedWakeups < nWaiters-1 {
		t.Fatalf("WastedWakeups = %d, want >= %d", ctr.WastedWakeups, nWaiters-1)
	}
}

func TestEpollTryWait(t *testing.T) {
	model := simclock.Datacenter2019()
	k := New(&model)
	r, w, _ := k.Pipe()
	ep := k.EpollCreate()
	ep.Add(r)
	if fds, _ := ep.TryWait(); len(fds) != 0 {
		t.Fatalf("spurious readiness: %v", fds)
	}
	k.WritePipe(w, []byte("x"), 0)
	fds, _ := ep.TryWait()
	if len(fds) != 1 || fds[0] != r {
		t.Fatalf("fds = %v", fds)
	}
	// Level-triggered: still ready because data remains.
	fds, _ = ep.TryWait()
	if len(fds) != 1 {
		t.Fatalf("level-triggered readiness lost: %v", fds)
	}
	k.ReadPipe(r, 0)
	if fds, _ := ep.TryWait(); len(fds) != 0 {
		t.Fatalf("ready after drain: %v", fds)
	}
}

// --- files ---

func TestFileWriteReadFsync(t *testing.T) {
	model := simclock.Datacenter2019()
	k := New(&model)
	disk := spdk.New(&model, spdk.Config{})
	k.AttachDisk(disk)

	fd, _, err := k.OpenFile("data.bin")
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("abcdefgh"), 1500) // 12000 bytes, 3 blocks
	if _, err := k.WriteFile(fd, payload); err != nil {
		t.Fatal(err)
	}
	if disk.Stats().Writes != 0 {
		t.Fatal("write-back cache wrote through")
	}
	if _, err := k.Fsync(fd); err != nil {
		t.Fatal(err)
	}
	// Journaling: 3 blocks * factor 2.
	if got := disk.Stats().Writes; got != 3*journalFactor {
		t.Fatalf("device writes = %d, want %d", got, 3*journalFactor)
	}
	got, _, err := k.ReadFile(fd, 4096, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload[4096:4196]) {
		t.Fatal("read back wrong bytes")
	}
	if sz, _ := k.FileSize(fd); sz != len(payload) {
		t.Fatalf("size = %d", sz)
	}
}

// dropCaches empties the page cache (dirty pages are discarded), so the
// next read is cold.
func dropCaches(k *Kernel) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.fs.pageCache = make(map[int][]byte)
	k.fs.dirty = make(map[int]bool)
}

func TestFileColdReadAfterDropCaches(t *testing.T) {
	model := simclock.Datacenter2019()
	k := New(&model)
	disk := spdk.New(&model, spdk.Config{})
	k.AttachDisk(disk)
	fd, _, _ := k.OpenFile("f")
	k.WriteFile(fd, bytes.Repeat([]byte{7}, 4096))
	k.Fsync(fd)
	dropCaches(k)
	before := disk.Stats().Reads
	_, coldCost, err := k.ReadFile(fd, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if disk.Stats().Reads != before+1 {
		t.Fatal("cold read did not hit the device")
	}
	_, warmCost, _ := k.ReadFile(fd, 0, 4096)
	if warmCost >= coldCost {
		t.Fatalf("warm read (%v) should be cheaper than cold (%v)", warmCost, coldCost)
	}
}

func TestFileWithoutDisk(t *testing.T) {
	model := simclock.Datacenter2019()
	k := New(&model)
	if _, _, err := k.OpenFile("f"); !errors.Is(err, ErrNoDisk) {
		t.Fatalf("err = %v", err)
	}
}

func TestReadBeyondEOFTruncated(t *testing.T) {
	model := simclock.Datacenter2019()
	k := New(&model)
	disk := spdk.New(&model, spdk.Config{})
	k.AttachDisk(disk)
	fd, _, _ := k.OpenFile("f")
	k.WriteFile(fd, []byte("0123456789"))
	got, _, err := k.ReadFile(fd, 5, 100)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "56789" {
		t.Fatalf("got %q", got)
	}
}

func TestPipeWrongDirectionRejected(t *testing.T) {
	model := simclock.Datacenter2019()
	k := New(&model)
	r, w, _ := k.Pipe()
	if _, _, err := k.WritePipe(r, []byte("x"), 0); !errors.Is(err, ErrBadFD) {
		t.Fatalf("write to read end: %v", err)
	}
	if _, _, err := k.ReadPipe(w, 0); !errors.Is(err, ErrBadFD) {
		t.Fatalf("read from write end: %v", err)
	}
}

func TestDiskFullSurfaces(t *testing.T) {
	model := simclock.Datacenter2019()
	k := New(&model)
	k.AttachDisk(spdk.New(&model, spdk.Config{NumBlocks: 2}))
	fd, _, _ := k.OpenFile("big")
	_, err := k.WriteFile(fd, make([]byte, 3*spdk.BlockSize))
	if !errors.Is(err, ErrDiskFull) {
		t.Fatalf("err = %v, want ErrDiskFull", err)
	}
}

func TestEpollCloseWakesWaiters(t *testing.T) {
	model := simclock.Datacenter2019()
	k := New(&model)
	ep := k.EpollCreate()
	done := make(chan bool, 1)
	go func() {
		_, _, ok := ep.Wait()
		done <- ok
	}()
	time.Sleep(5 * time.Millisecond)
	ep.Close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("closed epoll returned ok=true")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter not released by Close")
	}
}

func TestUseAfterCloseRejected(t *testing.T) {
	model := simclock.Datacenter2019()
	k := New(&model)
	r, w, _ := k.Pipe()
	k.Close(w)
	k.Close(r)
	if _, _, err := k.WritePipe(w, []byte("x"), 0); err == nil {
		t.Fatal("write on closed fd succeeded")
	}
	if _, _, err := k.ReadPipe(r, 0); err == nil {
		t.Fatal("read on closed fd succeeded")
	}
}
