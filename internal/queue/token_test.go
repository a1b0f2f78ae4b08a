package queue_test

// The qtoken contract is this package's — QToken, Completion,
// ErrUnknownToken, ErrTokenClaimed — and its one implementation is a slot
// of a completion ring. These tests hold the contract against that
// implementation, uring.Pair's token face, from outside the package.

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"demikernel/internal/queue"
	"demikernel/internal/simclock"
	"demikernel/internal/telemetry"
	"demikernel/internal/uring"
)

func TestCompleterTryWait(t *testing.T) {
	p := uring.NewPair(4)
	qt, done := p.ArmToken(0)
	if _, ok, err := p.TryWait(qt); ok || err != nil {
		t.Fatal("token completed before done")
	}
	done(queue.Completion{Kind: queue.OpPop, Cost: 5})
	comp, ok, err := p.TryWait(qt)
	if !ok || err != nil {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if comp.Token != qt || comp.Cost != 5 {
		t.Fatalf("comp = %+v", comp)
	}
	// Consumed: a second wait is an error.
	if _, _, err := p.TryWait(qt); !errors.Is(err, queue.ErrUnknownToken) {
		t.Fatalf("err = %v", err)
	}
}

// TestCompleterTokensUnique: no two tokens are equal, whether outstanding
// side by side or issued one after another from the same slot, and none is
// 0.
func TestCompleterTokensUnique(t *testing.T) {
	p := uring.NewPair(1)
	seen := map[queue.QToken]bool{0: true}
	fresh := func(qt queue.QToken) {
		t.Helper()
		if seen[qt] {
			t.Fatalf("token %#x issued twice (or 0)", qt)
		}
		seen[qt] = true
	}
	for i := 0; i < 1000; i++ {
		qt, done := p.ArmToken(0)
		fresh(qt)
		done(queue.Completion{})
		if _, ok, err := p.TryWait(qt); !ok || err != nil {
			t.Fatalf("reuse %d: ok=%v err=%v", i, ok, err)
		}
	}
	for i := 0; i < 1000; i++ {
		qt, _ := p.ArmToken(0)
		fresh(qt)
	}
}

func TestCompleterWaitChanExactlyOneWaiter(t *testing.T) {
	p := uring.NewPair(4)
	qt, done := p.ArmToken(0)
	ch, err := p.WaitChan(qt)
	if err != nil {
		t.Fatal(err)
	}
	// A second subscriber must be rejected: one waiter per token (§4.4).
	if _, err := p.WaitChan(qt); !errors.Is(err, queue.ErrTokenClaimed) {
		t.Fatalf("second waiter err = %v", err)
	}
	done(queue.Completion{Kind: queue.OpPop})
	select {
	case comp := <-ch:
		if comp.Token != qt {
			t.Fatalf("comp = %+v", comp)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter never woken")
	}
	if w := p.CountersSnapshot().Wakeups; w != 1 {
		t.Fatalf("Wakeups = %d", w)
	}
}

func TestCompleterWaitChanAfterCompletion(t *testing.T) {
	p := uring.NewPair(4)
	qt, done := p.ArmToken(0)
	done(queue.Completion{Kind: queue.OpPush})
	ch, err := p.WaitChan(qt)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("already-complete token not delivered")
	}
}

func TestCompleterNoWastedWakeups(t *testing.T) {
	// N goroutines each wait on their own token; M < N completions
	// arrive. Exactly M goroutines wake; the rest stay blocked. This is
	// the §4.4 property the E5 experiment quantifies against epoll.
	p := uring.NewPair(4)
	const n, m = 8, 3
	var tokens []queue.QToken
	var dones []queue.DoneFunc
	for i := 0; i < n; i++ {
		qt, done := p.ArmToken(0)
		tokens = append(tokens, qt)
		dones = append(dones, done)
	}
	var woken atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		ch, err := p.WaitChan(tokens[i])
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(ch <-chan queue.Completion) {
			defer wg.Done()
			if _, ok := <-ch; ok {
				woken.Add(1)
			}
		}(ch)
	}
	for i := 0; i < m; i++ {
		dones[i](queue.Completion{Kind: queue.OpPop})
	}
	deadline := time.Now().Add(2 * time.Second)
	for woken.Load() < m && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond) // would-be stragglers
	if woken.Load() != m {
		t.Fatalf("woken = %d, want exactly %d", woken.Load(), m)
	}
	if w := p.CountersSnapshot().Wakeups; w != m {
		t.Fatalf("Wakeups = %d, want %d", w, m)
	}
	// Release the rest so the test exits cleanly.
	for i := m; i < n; i++ {
		dones[i](queue.Completion{Kind: queue.OpPop})
	}
	wg.Wait()
}

func TestCompleterOutstanding(t *testing.T) {
	p := uring.NewPair(4)
	if p.CountersSnapshot().Tokens != 0 {
		t.Fatal("fresh pair has tokens")
	}
	qt, done := p.ArmToken(0)
	if n := p.CountersSnapshot().Tokens; n != 1 {
		t.Fatalf("Tokens = %d", n)
	}
	done(queue.Completion{})
	if n := p.CountersSnapshot().Tokens; n != 1 {
		t.Fatalf("Tokens after completion = %d, want 1 until consumed", n)
	}
	p.TryWait(qt)
	if n := p.CountersSnapshot().Tokens; n != 0 {
		t.Fatalf("Tokens after consume = %d", n)
	}
}

// TestCompleterChannelHandoffRaceStress exercises the complete→WaitChan
// handoff, which sends outside the pair's lock, under -race: many tokens,
// each with one concurrent completer and one concurrent subscriber, in
// both orders. Every waiter must receive exactly one completion.
func TestCompleterChannelHandoffRaceStress(t *testing.T) {
	p := uring.NewPair(4)
	const n = 2000
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		qt, done := p.ArmToken(0)
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			done(queue.Completion{Kind: queue.OpPop, Cost: simclock.Lat(i)})
		}(i)
		go func() {
			defer wg.Done()
			// The token is consumed only through this channel, so it can
			// be neither unknown nor claimed here.
			ch, err := p.WaitChan(qt)
			if err != nil {
				t.Errorf("WaitChan: %v", err)
				return
			}
			select {
			case <-ch:
			case <-time.After(5 * time.Second):
				t.Error("completion never delivered")
			}
		}()
	}
	wg.Wait()
	c := p.CountersSnapshot()
	if c.Tokens != 0 {
		t.Fatalf("Tokens = %d after all handoffs, want 0", c.Tokens)
	}
	if c.Wakeups != n {
		t.Fatalf("Wakeups = %d, want %d (exactly one per token)", c.Wakeups, n)
	}
}

// TestCompleterSpanStamps checks qtoken span plumbing end to end on the
// token face: issue/complete/consume produce one summary per (qd, op) with
// the op's virtual cost in the histogram.
func TestCompleterSpanStamps(t *testing.T) {
	p := uring.NewPair(4)
	spans := telemetry.NewSpanTable("test")
	spans.Enable()
	p.SetSpans(spans)

	qt, done := p.ArmToken(3)
	done(queue.Completion{Kind: queue.OpPop, Cost: simclock.Lat(123)})
	if _, ok, err := p.TryWait(qt); !ok || err != nil {
		t.Fatalf("TryWait: ok=%v err=%v", ok, err)
	}

	sums := spans.Summaries()
	if len(sums) != 1 {
		t.Fatalf("got %d summaries, want 1: %+v", len(sums), sums)
	}
	s := sums[0]
	if s.QD != 3 || s.Kind != int(queue.OpPop) || s.Ops != 1 || s.Errs != 0 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Lat.P50 != 123 {
		t.Fatalf("span latency P50 = %v, want 123 (virtual cost)", s.Lat.P50)
	}
}

// TestCompleterSpansDisabledNoSidecar: with spans off, a token round trip
// records nothing, and one armed while they were off is not recorded
// after they come on.
func TestCompleterSpansDisabledNoSidecar(t *testing.T) {
	p := uring.NewPair(4)
	spans := telemetry.NewSpanTable("test")
	p.SetSpans(spans)
	qt, done := p.ArmToken(1)
	done(queue.Completion{Kind: queue.OpPush})
	if _, ok, err := p.TryWait(qt); !ok || err != nil {
		t.Fatalf("TryWait: ok=%v err=%v", ok, err)
	}
	qt, done = p.ArmToken(1)
	spans.Enable()
	done(queue.Completion{Kind: queue.OpPush})
	if _, ok, err := p.TryWait(qt); !ok || err != nil {
		t.Fatalf("TryWait: ok=%v err=%v", ok, err)
	}
	if sums := spans.Summaries(); len(sums) != 0 {
		t.Fatalf("spans recorded while disabled: %+v", sums)
	}
}
