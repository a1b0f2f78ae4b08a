package failover

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	demi "demikernel"
	"demikernel/internal/core"
	"demikernel/internal/libos/catmint"
	"demikernel/internal/queue"
)

func TestBackoffGrowsAndCaps(t *testing.T) {
	b := NewBackoff(Policy{MaxAttempts: 6, Base: time.Millisecond, Max: 4 * time.Millisecond, Seed: 1})
	want := []time.Duration{1, 2, 4, 4, 4, 4} // ms: doubling, then capped
	for i, w := range want {
		d, ok := b.Next()
		if !ok {
			t.Fatalf("iterator dried up at attempt %d", i)
		}
		if d != w*time.Millisecond {
			t.Fatalf("delay %d = %v, want %v", i, d, w*time.Millisecond)
		}
	}
	if _, ok := b.Next(); ok {
		t.Fatal("iterator outlived MaxAttempts")
	}
	if b.attempt != 6 {
		t.Fatalf("attempts = %d, want 6", b.attempt)
	}
	b.Reset()
	if d, ok := b.Next(); !ok || d != time.Millisecond {
		t.Fatalf("post-Reset Next = %v, %v", d, ok)
	}
}

// Jitter must decorrelate without ever collapsing a delay to zero: each
// delay lands in [1-J/2, 1+J/2) of its nominal value.
func TestBackoffJitterBounds(t *testing.T) {
	pol := Policy{MaxAttempts: 200, Base: 10 * time.Millisecond, Max: 10 * time.Millisecond, Jitter: 0.5, Seed: 7}
	b := NewBackoff(pol)
	lo := time.Duration(float64(10*time.Millisecond) * 0.75)
	hi := time.Duration(float64(10*time.Millisecond) * 1.25)
	varied := false
	var prev time.Duration
	for i := 0; i < 200; i++ {
		d, ok := b.Next()
		if !ok {
			t.Fatal("iterator dried up early")
		}
		if d < lo || d > hi {
			t.Fatalf("jittered delay %v outside [%v, %v]", d, lo, hi)
		}
		if i > 0 && d != prev {
			varied = true
		}
		prev = d
	}
	if !varied {
		t.Fatal("jitter never varied the delay")
	}
}

func TestBackoffIsSeededDeterministic(t *testing.T) {
	pol := DefaultPolicy()
	a, b := NewBackoff(pol), NewBackoff(pol)
	for i := 0; i < pol.MaxAttempts; i++ {
		da, _ := a.Next()
		db, _ := b.Next()
		if da != db {
			t.Fatalf("same seed diverged at attempt %d: %v vs %v", i, da, db)
		}
	}
}

func TestRetriableClassification(t *testing.T) {
	for _, err := range []error{
		core.ErrPeerDead,
		core.ErrLocalReset,
		core.ErrWaitTimeout, // the silent-peer liveness signal
		queue.ErrClosed,
		fmt.Errorf("wrapped: %w", core.ErrPeerDead),
		catmint.ErrQPBroken,  // a broken queue pair's flushed requests
		catmint.ErrOpTimeout, // the dead-peer detector
	} {
		if !Retriable(err) {
			t.Errorf("Retriable(%v) = false, want true", err)
		}
	}
	for _, err := range []error{
		nil,
		errors.New("bad request"),
		core.ErrNotSupported,
		core.ErrBadQD,
	} {
		if Retriable(err) {
			t.Errorf("Retriable(%v) = true, want false", err)
		}
	}
}

// fastPolicy retries n times with negligible backoffs.
func fastPolicy(n int) *Policy {
	return &Policy{MaxAttempts: n, Base: time.Microsecond, Max: time.Microsecond}
}

// clientLib is a client node's libOS, which Do polls while it backs off.
func clientLib() *core.LibOS {
	return demi.NewCluster(1).MustSpawn(demi.Catnip, demi.WithHost(2)).LibOS
}

func TestDoReplaysAfterRedial(t *testing.T) {
	lib := clientLib()
	const k = 3
	attempts := 0
	redials, err := Do(lib, fastPolicy(10),
		func() error {
			attempts++
			if attempts <= k {
				return fmt.Errorf("attempt %d: %w", attempts, core.ErrPeerDead)
			}
			return nil
		},
		func() error { return nil })
	if err != nil || redials != k || attempts != k+1 {
		t.Fatalf("Do = %d redials, err %v after %d attempts; want %d, nil, %d", redials, err, attempts, k, k+1)
	}

	// Unarmed (nil policy) and non-retriable failures run attempt once.
	for _, tc := range []struct {
		pol *Policy
		err error
	}{{nil, core.ErrPeerDead}, {fastPolicy(10), core.ErrBadQD}} {
		attempts = 0
		redials, err = Do(lib, tc.pol,
			func() error { attempts++; return tc.err },
			func() error { t.Fatal("redial called"); return nil })
		if !errors.Is(err, tc.err) || redials != 0 || attempts != 1 {
			t.Fatalf("Do(%v) = %d redials, err %v after %d attempts", tc.pol, redials, err, attempts)
		}
	}
}

func TestDoStopsAtMaxAttemptsWithLastTypedError(t *testing.T) {
	lib := clientLib()
	// The server stays down for the first two redials (typed, retriable),
	// then every replay dies with a different typed error: the budget
	// counts both, and the error reported is the last one seen.
	calls := 0
	redials, err := Do(lib, fastPolicy(5),
		func() error { return core.ErrPeerDead },
		func() error {
			calls++
			if calls <= 2 {
				return core.ErrWaitTimeout
			}
			return nil
		})
	if calls != 5 || redials != 3 {
		t.Fatalf("redial called %d times, %d succeeded; want 5 and 3", calls, redials)
	}
	if !errors.Is(err, core.ErrPeerDead) {
		t.Fatalf("err = %v, want the last attempt's ErrPeerDead", err)
	}

	_, err = Do(lib, fastPolicy(4),
		func() error { return core.ErrPeerDead },
		func() error { return core.ErrWaitTimeout })
	if !errors.Is(err, core.ErrWaitTimeout) {
		t.Fatalf("err = %v, want the last redial's ErrWaitTimeout", err)
	}
}

func TestDoNonRetriableRedialEndsLoop(t *testing.T) {
	lib := clientLib()
	calls := 0
	redials, err := Do(lib, fastPolicy(10),
		func() error { return core.ErrPeerDead },
		func() error { calls++; return core.ErrBadQD })
	if !errors.Is(err, core.ErrBadQD) || redials != 0 || calls != 1 {
		t.Fatalf("Do = %d redials, err %v after %d redial calls; want 0, ErrBadQD, 1", redials, err, calls)
	}
}

// TestBackoffWaitsOnNodeClock: Do's backoff is a wait on the client node's
// clock. With that clock stopped, an hour's backoff holds the redial until
// the test steps the clock an hour, and then the replay finishes at once.
func TestBackoffWaitsOnNodeClock(t *testing.T) {
	lib := clientLib()
	lib.Clock().SetSkew(-1e6)
	var r Replayer
	r.EnableFailover(Policy{MaxAttempts: 1, Base: time.Hour, Max: time.Hour})
	var redialed atomic.Bool
	done := make(chan error, 1)
	go func() {
		failed := false
		done <- r.Replay(lib, func() error {
			if !failed {
				failed = true
				return core.ErrPeerDead
			}
			return nil
		}, func() error { redialed.Store(true); return nil })
	}()
	time.Sleep(50 * time.Millisecond)
	if redialed.Load() {
		t.Fatal("redial ran while the node clock stood still")
	}
	lib.Clock().Step(time.Hour)
	select {
	case err := <-done:
		if err != nil || !redialed.Load() {
			t.Fatalf("replay after the step: %v, redialed %v", err, redialed.Load())
		}
	case <-time.After(2 * time.Second):
		t.Fatal("backoff still waiting 2s after the node clock stepped an hour")
	}
	if n, _ := r.FailoverStats(); n != 1 {
		t.Fatalf("%d redials, want 1", n)
	}
}

// The redial rules every client shares, through Conn: the dialer sees
// attempt numbers 1, 2, 3…; the swap is dial-first, close-second, so a
// redial that fails leaves the old QD open (its errors stay typed, never
// ErrBadQD) with the answers it owes, and one that succeeds swaps the
// descriptor, closes the old one and owes nothing; Connect on a connected
// Conn makes the same swap and closes the QD it replaces; a closed Conn
// stays closed.
func TestRedialClosesOldQDOnlyAfterDialing(t *testing.T) {
	c := demi.NewCluster(7)
	srv := c.MustSpawn(demi.Catnip, demi.WithHost(1))
	cli := c.MustSpawn(demi.Catnip, demi.WithHost(2))
	defer srv.Background()()
	defer cli.Background()()
	lqd, err := srv.Socket()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Bind(lqd, core.Addr{Port: 7}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen(lqd); err != nil {
		t.Fatal(err)
	}

	port := uint16(7)
	var attempts []int
	conn := NewConn(cli.LibOS, core.InvalidQD, func(attempt int) (core.QD, error) {
		attempts = append(attempts, attempt)
		return Dial(cli.LibOS, c.AddrOf(srv, port))
	})
	if err := conn.Redial(); err != nil {
		t.Fatal(err)
	}
	old := conn.QD()
	conn.owe(old, 2) // two pushes whose waits timed out

	port = 9
	if err := conn.Redial(); err == nil {
		t.Fatal("redial to a port nobody listens on succeeded")
	}
	if conn.QD() != old {
		t.Fatalf("failed redial replaced the QD: %d -> %d", old, conn.QD())
	}
	if conn.owed != 2 {
		t.Fatalf("failed redial left %d answers owed, want the 2 the kept QD owes", conn.owed)
	}
	if _, err := cli.Push(old, demi.NewSGA([]byte("still open"))); err != nil {
		t.Fatalf("old QD unusable after a failed redial: %v", err)
	}

	port = 7
	if err := conn.Redial(); err != nil {
		t.Fatal(err)
	}
	if conn.QD() == old {
		t.Fatal("successful redial kept the old QD")
	}
	if conn.owed != 0 {
		t.Fatalf("successful redial left %d answers owed, want 0 on a fresh connection", conn.owed)
	}
	if err := cli.Close(old); !errors.Is(err, core.ErrBadQD) {
		t.Fatalf("Close(old) = %v after a successful redial, want ErrBadQD (already closed)", err)
	}
	if fmt.Sprint(attempts) != "[1 2 3]" {
		t.Fatalf("dialer saw attempts %v, want [1 2 3]", attempts)
	}

	prev := conn.QD()
	if err := conn.Connect(c.AddrOf(srv, 7)); err != nil {
		t.Fatal(err)
	}
	if conn.QD() == prev {
		t.Fatal("Connect on a connected Conn kept its QD")
	}
	if err := cli.Close(prev); !errors.Is(err, core.ErrBadQD) {
		t.Fatalf("Close(prev) = %v after a second Connect, want ErrBadQD (closed, not leaked)", err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if err := conn.Redial(); !errors.Is(err, queue.ErrClosed) || len(attempts) != 3 {
		t.Fatalf("Redial of a closed Conn = %v after %d dials, want ErrClosed and no dial", err, len(attempts))
	}
}
