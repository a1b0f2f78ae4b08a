package netstack

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"demikernel/internal/fabric"
	"demikernel/internal/fifo"
	"demikernel/internal/nic"
	"demikernel/internal/simclock"
	"demikernel/internal/telemetry"
)

// TCP connection states (a condensed but faithful subset of RFC 793).
type tcpState int

const (
	stateSynSent tcpState = iota
	stateSynRcvd
	stateEstablished
	stateClosed
)

// seqLT reports a < b in 32-bit sequence space.
func seqLT(a, b uint32) bool { return int32(a-b) < 0 }

// seqLEQ reports a <= b in 32-bit sequence space.
func seqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }

// maxRTO caps exponential backoff.
const maxRTO = time.Second

// sndBufMax bounds the per-connection send buffer.
const sndBufMax = 256 * 1024

// TCPListener accepts inbound connections on a port.
type TCPListener struct {
	stack   *Stack
	port    uint16
	backlog fifo.Queue[*TCPConn]
	// pending is backlog.Len(), written under the stack's lock and read
	// without it: an accept loop finds an empty backlog with one load.
	pending atomic.Int32
	closed  bool
}

// ListenTCP binds a listener to port.
func (s *Stack) ListenTCP(port uint16) (*TCPListener, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, used := s.listeners[port]; used {
		return nil, fmt.Errorf("%w: tcp %d", ErrPortInUse, port)
	}
	l := &TCPListener{stack: s, port: port}
	s.listeners[port] = l
	return l, nil
}

// Accept pops one fully established connection, without blocking, and
// without taking the stack's lock when there is none.
func (l *TCPListener) Accept() (*TCPConn, bool) {
	if l.Pending() == 0 {
		return nil, false
	}
	l.stack.mu.Lock()
	defer l.stack.mu.Unlock()
	return l.AcceptHeld()
}

// AcceptHeld is Accept for a caller that holds the stack's lock
// (Stack.Mutex).
func (l *TCPListener) AcceptHeld() (*TCPConn, bool) {
	if l.backlog.Len() == 0 {
		return nil, false
	}
	l.pending.Add(-1)
	return l.backlog.Pop(), true
}

// Close unbinds the listener. Established connections are unaffected.
func (l *TCPListener) Close() {
	s := l.stack
	s.mu.Lock()
	defer s.mu.Unlock()
	l.closed = true
	delete(s.listeners, l.port)
}

// TCPConn is one TCP connection. All methods are non-blocking; callers
// pump Stack.Poll and retry, which is exactly how a Demikernel libOS
// drives it from wait_*.
type TCPConn struct {
	stack *Stack
	key   connKey
	state tcpState
	iss   uint32

	// Send side. sndBuf holds bytes in [sndUna, sndUna+sndBuf.Len()).
	sndUna, sndNxt uint32
	// ackedTo is receive-side state (see ackPending) kept here to fill the
	// word: the acknowledgement number of the last segment sent, so that
	// rcvNxt-ackedTo bytes are accepted and not yet acknowledged.
	ackedTo        uint32
	sndBuf         byteRing
	peerWnd        int
	cwnd, ssthresh int
	dupAcks        int
	rto            time.Duration
	retries        int // consecutive timer-driven retransmits
	txCost         simclock.Lat
	finQueued      bool
	finSent        bool
	finAcked       bool

	// Receive side. ooo stashes out-of-order segments in pooled buffers
	// keyed by sequence number (made on the first stash: a loss-free
	// connection never owns one); every exit path (drain, RST, give-up,
	// orderly close) releases them back to the frame pool.
	rcvNxt      uint32
	rcvBuf      byteRing
	ooo         map[uint32]*fabric.FrameBuf
	peerFinRcvd bool
	rxCost      simclock.Lat
	// advWnd is the receive window advertised in the most recent segment
	// we sent. RecvAppend compares against it to decide when an
	// application drain has reopened the window enough that the (possibly
	// stalled) sender must be told with a window-update ACK.
	advWnd int
	// ackPending marks in-order data accepted but not yet acknowledged,
	// since the poll numbered ackSince (Stack.pollSeq): the next segment
	// the connection sends carries the acknowledgement and clears the mark
	// (sendSegmentsLocked), and failing that flushAcksLocked sends a pure
	// ACK. ackQueued is set while the connection sits on stack.ackQueue.
	ackPending, ackQueued bool
	ackSince              uint32

	// pendingListener receives the connection on handshake completion.
	pendingListener *TCPListener

	err error

	// The one timer (RTO, persist and give-up share it; see timer.go).
	// deadline is when it fires, in the stack clock's nanoseconds, 0 while
	// unarmed; armSeq orders connections armed for the same instant;
	// timerSlot is the connection's 1-based position in stack.timers, 0
	// while it has no entry there.
	deadline  int64
	armSeq    uint32
	timerSlot int32

	// Set by Hold.SetOwner, the connection joins stack.readyQueue whenever
	// it is or becomes readable.
	readiness
}

// updateReadyLocked queues a readable connection for its owner. Call at
// every point where rcvBuf, peerFinRcvd, or err transitions.
func (c *TCPConn) updateReadyLocked() {
	if c.rcvBuf.Len() > 0 || c.peerFinRcvd || c.err != nil {
		c.stack.queueReadyLocked(&c.readiness)
	}
}

// DialTCP starts an active open to ip:port. The returned connection is in
// SYN-SENT; poll the stack until Established reports true.
func (s *Stack) DialTCP(ip IPv4Addr, port uint16) (*TCPConn, error) {
	return s.DialTCPFrom(0, ip, port)
}

// DialTCPFrom is DialTCP with an explicit local port (0 picks an
// ephemeral one). Sharded clients use it to choose a source port whose
// RSS hash steers the *server-side* flow onto a particular shard's
// receive queue (nic.RSSQueueFlow computes the mapping) — the
// connection-placement half of share-nothing partitioning.
func (s *Stack) DialTCPFrom(localPort uint16, ip IPv4Addr, port uint16) (*TCPConn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	local := localPort
	if local == 0 {
		local = s.ephemeralLocked()
	}
	key := connKey{localPort: local, remoteIP: ip, remotePort: port}
	if _, dup := s.conns[key]; dup {
		return nil, fmt.Errorf("%w: %v", ErrPortInUse, key)
	}
	c := s.newConnLocked(key, stateSynSent)
	s.conns[key] = c
	c.sendSegmentsLocked(c.iss, 0, 0, flagSYN)
	c.sndNxt = c.iss + 1
	c.armTimerLocked()
	return c, nil
}

func (s *Stack) newConnLocked(key connKey, st tcpState) *TCPConn {
	s.issCounter += 64013
	return &TCPConn{
		stack:    s,
		key:      key,
		state:    st,
		iss:      s.issCounter,
		cwnd:     2 * s.cfg.MSS,
		ssthresh: 64 * 1024,
		peerWnd:  s.cfg.MSS, // until the peer advertises
		rto:      s.cfg.RTO,
	}
}

// LocalPort returns the connection's local port.
func (c *TCPConn) LocalPort() uint16 { return c.key.localPort }

// RemoteIP returns the peer address.
func (c *TCPConn) RemoteIP() IPv4Addr { return c.key.remoteIP }

// RemotePort returns the peer port.
func (c *TCPConn) RemotePort() uint16 { return c.key.remotePort }

// Established reports whether the handshake has completed.
func (c *TCPConn) Established() bool {
	c.stack.mu.Lock()
	defer c.stack.mu.Unlock()
	return c.state == stateEstablished
}

// Err returns the terminal error, if the connection failed.
func (c *TCPConn) Err() error {
	h := c.Hold()
	defer h.Release()
	return h.Err()
}

// Hold is the stack lock taken on behalf of one connection, so that a
// caller with several things to do to it — queue bytes, flush them, read,
// look at the error — pays for the lock once and sees one consistent
// state. Err and RecvAppend are the TCPConn methods of the same names,
// each a Hold around one call. Release it before calling anything
// else on the stack, and before taking any lock that is held around stack
// calls.
type Hold struct{ c *TCPConn }

// Hold locks the connection's stack until Release.
func (c *TCPConn) Hold() Hold {
	c.stack.mu.Lock()
	return Hold{c}
}

// Held is the Hold of a caller that already holds the stack's lock
// (Stack.Mutex), as a libOS does across a whole call: it takes nothing,
// and is not released.
func (c *TCPConn) Held() Hold { return Hold{c} }

// Release ends the hold.
func (h Hold) Release() { h.c.stack.mu.Unlock() }

// Err is TCPConn.Err under the hold.
func (h Hold) Err() error { return h.c.err }

// SetOwner names the consumer of the connection's receive side: from now
// on Stack.PollReady hands owner back whenever data, a FIN or a terminal
// error is there to be read, starting with whatever already is. nil stops
// the reports.
func (h Hold) SetOwner(owner any) {
	h.c.owner = owner
	h.c.updateReadyLocked()
}

// SendBuffered queues bytes like Send but defers segmentation until
// FlushSend, so a burst of application writes coalesces into MSS-sized
// segments instead of one undersized segment per write. Retransmission
// and flow control are unchanged — sndBuf remains the source of truth.
func (h Hold) SendBuffered(b []byte, cost simclock.Lat) (int, error) {
	return h.c.enqueueLocked(b, cost)
}

// FlushSend emits whatever SendBuffered queued, as far as the congestion
// and flow-control windows allow.
func (h Hold) FlushSend() { h.c.trySendLocked() }

// RecvAppend is TCPConn.RecvAppend under the hold.
func (h Hold) RecvAppend(dst []byte, max int) ([]byte, simclock.Lat, error) {
	return h.c.recvAppendLocked(dst, max)
}

// RecvSpans shows every in-order received byte where it lies in the
// receive ring — one span, or two when the bytes wrap its end — with the
// virtual cost they arrived at, for a consumer that copies them to their
// final place itself: RecvAppend without the append. No data is a nil
// first span and a nil error; the error is io.EOF once the peer's FIN has
// been consumed and the ring is dry, or the connection's terminal one.
func (h Hold) RecvSpans() (first, second []byte, cost simclock.Lat, err error) {
	return h.c.recvSpansLocked(0)
}

// RecvDiscard dequeues the first n bytes RecvSpans showed: what RecvAppend
// does after its copy. Making room can pull stashed out-of-order data into
// the ring and send a window update, so the spans are dead from here on:
// take everything wanted from them first, discard once, then ask again.
func (h Hold) RecvDiscard(n int) { h.c.recvDiscardLocked(n) }

// Send enqueues payload bytes for transmission, carrying the caller's
// accumulated virtual cost. It returns the number of bytes accepted,
// which may be less than len(b) when the send buffer fills.
func (c *TCPConn) Send(b []byte, cost simclock.Lat) (int, error) {
	s := c.stack
	s.mu.Lock()
	defer s.mu.Unlock()
	n, err := c.enqueueLocked(b, cost)
	if n > 0 {
		c.trySendLocked()
	}
	return n, err
}

// enqueueLocked copies as much of b as fits under sndBufMax into the
// send queue: (0, nil) is a full buffer, not an error.
func (c *TCPConn) enqueueLocked(b []byte, cost simclock.Lat) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	if c.state == stateClosed || c.finQueued {
		return 0, ErrConnClosed
	}
	n := min(len(b), sndBufMax-c.sndBuf.Len())
	if n <= 0 {
		return 0, nil
	}
	c.sndBuf.write(b[:n], sndBufMax)
	c.txCost = cost
	return n, nil
}

// Recv pops up to max in-order received bytes. It returns (nil, 0, nil)
// when no data is ready, and io.EOF once the peer's FIN has been consumed
// and the buffer is drained.
func (c *TCPConn) Recv(max int) ([]byte, simclock.Lat, error) {
	return c.RecvAppend(nil, max)
}

// RecvAppend is Recv with caller-provided storage: ready bytes are
// appended to dst (commonly a recycled scratch slice with len 0), so a
// steady-state receive loop runs without allocating. It returns dst
// unchanged alongside io.EOF / a terminal error / no-data.
func (c *TCPConn) RecvAppend(dst []byte, max int) ([]byte, simclock.Lat, error) {
	h := c.Hold()
	defer h.Release()
	return h.RecvAppend(dst, max)
}

func (c *TCPConn) recvAppendLocked(dst []byte, max int) ([]byte, simclock.Lat, error) {
	first, second, cost, err := c.recvSpansLocked(max)
	if len(first) == 0 {
		return dst, 0, err
	}
	dst = append(append(dst, first...), second...)
	c.recvDiscardLocked(len(first) + len(second))
	return dst, cost, nil
}

// recvSpansLocked shows the first max (0: all) in-order received bytes
// where they lie in the receive ring, as one span or two, with the virtual
// cost they arrived at: no data is (nil, nil, 0, nil), io.EOF follows the
// last byte once the peer's FIN is in. The spans are good until the next
// call that discards or takes in data.
func (c *TCPConn) recvSpansLocked(max int) (first, second []byte, cost simclock.Lat, err error) {
	if c.err != nil {
		return nil, nil, 0, c.err
	}
	n := c.rcvBuf.Len()
	if n == 0 {
		if c.peerFinRcvd {
			return nil, nil, 0, io.EOF
		}
		return nil, nil, 0, nil
	}
	if max > 0 && n > max {
		n = max
	}
	first, second = c.rcvBuf.spans(0, n)
	return first, second, c.rxCost, nil
}

// recvDiscardLocked dequeues the first n received bytes and does what
// freeing that room calls for.
func (c *TCPConn) recvDiscardLocked(n int) {
	if n == 0 {
		return
	}
	c.rcvBuf.discard(n)
	// The drain may have made room for out-of-order segments that were
	// parked because the reassembly buffer was full; deliver them now
	// instead of waiting for the sender's RTO to retransmit them.
	before := c.rcvNxt
	c.drainOutOfOrderLocked()
	// Window update: a sender stalled on a zero (or shrunken) advertised
	// window has nothing in flight to elicit an ACK, so unless we tell it
	// the window reopened it only discovers via a retransmission timeout.
	// Receiver-side SWS avoidance: announce only when the window grew by
	// at least an MSS or half the receive buffer since our last
	// advertisement (RFC 1122 4.2.3.3), or when the re-drain advanced
	// rcvNxt (the parked data must be ACKed regardless).
	if c.state == stateEstablished {
		opened := int(c.advertisedWindowLocked()) - c.advWnd
		threshold := min(c.stack.cfg.MSS, c.stack.cfg.RxWindow/2)
		if before != c.rcvNxt || opened >= threshold {
			c.sendAckLocked()
		}
	}
	c.updateReadyLocked()
}

// Close queues a FIN after any buffered data drains.
func (c *TCPConn) Close() {
	s := c.stack
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.finQueued || c.state == stateClosed {
		return
	}
	c.finQueued = true
	c.trySendLocked()
}

// Pending returns the number of connections waiting in the accept
// backlog. It takes no lock.
func (l *TCPListener) Pending() int { return int(l.pending.Load()) }

// --- segment input ---

func (s *Stack) handleTCPLocked(h ipv4Header, body []byte, csum fabric.Csum, cost simclock.Lat) {
	seg, ok := parseTCP(body, h.src, h.dst, csum)
	if !ok {
		s.stats.BadChecksums++
		return
	}
	s.stats.TCPSegsRcvd++
	s.stats.TCPChainsRcvd++
	s.segmentLocked(h, seg, cost)
}

// segmentLocked hands a received segment to its connection, or answers it
// for one being opened or none.
func (s *Stack) segmentLocked(h ipv4Header, seg tcpSegment, cost simclock.Lat) {
	key := connKey{localPort: seg.dstPort, remoteIP: h.src, remotePort: seg.srcPort}
	if c, ok := s.conns[key]; ok {
		c.handleSegmentLocked(seg, cost)
		return
	}
	// New inbound connection?
	if seg.flags&flagSYN != 0 && seg.flags&flagACK == 0 {
		if l, ok := s.listeners[seg.dstPort]; ok && !l.closed {
			c := s.newConnLocked(key, stateSynRcvd)
			s.conns[key] = c
			c.rcvNxt = seg.seq + 1
			c.peerWnd = int(seg.window)
			c.pendingListener = l
			c.sendSegmentsLocked(c.iss, 0, 0, flagSYN|flagACK)
			c.sndNxt = c.iss + 1
			c.armTimerLocked()
			return
		}
	}
	s.stats.NoListener++
	// No connection and no listener: answer with RST, as a real stack
	// does, so the peer fails fast instead of retrying into a void.
	if seg.flags&flagRST == 0 {
		s.sendRSTLocked(h.src, seg)
	}
}

// sendRSTLocked emits a reset in response to an orphan segment.
func (s *Stack) sendRSTLocked(dst IPv4Addr, orphan tcpSegment) {
	s.stats.RSTsSent++
	rst := tcpSegment{
		srcPort: orphan.dstPort,
		dstPort: orphan.srcPort,
		// RFC 793: if the orphan had an ACK, reset with its ack number;
		// otherwise seq 0 and ack covering the orphan.
		seq:   orphan.ack,
		ack:   orphan.seq + uint32(len(orphan.payload)) + 1,
		flags: flagRST | flagACK,
	}
	s.sendTCPLocked(dst, rst, 0)
}

func (c *TCPConn) handleSegmentLocked(seg tcpSegment, cost simclock.Lat) {
	s := c.stack
	if seg.flags&flagRST != 0 {
		s.stats.RSTsRcvd++
		c.abortLocked(ErrConnClosed)
		return
	}
	switch c.state {
	case stateSynSent:
		if seg.flags&(flagSYN|flagACK) == flagSYN|flagACK && seg.ack == c.iss+1 {
			c.sndUna = seg.ack
			c.rcvNxt = seg.seq + 1
			c.peerWnd = int(seg.window)
			c.state = stateEstablished
			c.retries = 0
			c.clearTimerLocked()
			c.sendAckLocked()
			c.trySendLocked()
		}
		return
	case stateSynRcvd:
		if seg.flags&flagACK != 0 && seg.ack == c.iss+1 {
			c.sndUna = seg.ack
			c.peerWnd = int(seg.window)
			c.state = stateEstablished
			c.retries = 0
			c.clearTimerLocked()
			if l := c.pendingListener; l != nil && !l.closed {
				l.backlog.Push(c)
				l.pending.Add(1)
			}
			c.pendingListener = nil
			// Fall through: the handshake ACK may carry data.
		} else {
			return
		}
	case stateClosed:
		return
	}

	// Any valid segment from the peer proves it is alive: the
	// retransmission budget tracks dead peers, not slow ones (a closed
	// receive window answered by probe ACKs must not kill the
	// connection).
	c.retries = 0

	c.processAckLocked(seg)
	c.processDataLocked(seg, cost)
	c.maybeFinishLocked()
	c.updateReadyLocked()
}

func (c *TCPConn) processAckLocked(seg tcpSegment) {
	if seg.flags&flagACK == 0 {
		return
	}
	oldWnd := c.peerWnd
	c.peerWnd = int(seg.window)
	mss := c.stack.cfg.MSS
	switch {
	case seqLT(c.sndUna, seg.ack) && seqLEQ(seg.ack, c.sndNxt):
		acked := int(seg.ack - c.sndUna)
		dataAcked := acked
		if dataAcked > c.sndBuf.Len() {
			dataAcked = c.sndBuf.Len() // the excess is our FIN
			c.finAcked = c.finSent
		}
		c.sndBuf.discard(dataAcked)
		c.sndUna = seg.ack
		c.dupAcks = 0
		c.retries = 0 // forward progress: the peer is alive
		c.rto = c.stack.cfg.RTO
		// Congestion control: slow start then AIMD (RFC 5681 shape),
		// counted in bytes acknowledged rather than ACKs received (RFC
		// 3465): the receiver sends one cumulative ACK per burst, and a
		// window that grew per ACK would open that many times slower.
		if c.cwnd < c.ssthresh {
			c.cwnd += dataAcked
		} else {
			c.cwnd += mss * dataAcked / c.cwnd
		}
		if c.sndUna != c.sndNxt || c.sndBuf.Len() > 0 {
			// Data in flight, or data stalled behind a closed peer
			// window (the timer then acts as the persist timer).
			c.armTimerLocked()
		} else {
			c.clearTimerLocked()
		}
	case seg.ack == c.sndUna && c.sndNxt != c.sndUna && len(seg.payload) == 0 && c.peerWnd == oldWnd:
		c.stack.stats.DupAcksRcvd++
		c.dupAcks++
		if c.dupAcks == 3 {
			c.fastRetransmitLocked()
		}
	}
	// A window update may have unblocked sending even without new ACKs.
	c.trySendLocked()
}

func (c *TCPConn) fastRetransmitLocked() {
	s := c.stack
	s.stats.FastRetransmits++
	telemetry.TraceInstant("netstack", "fast-retransmit", int32(c.key.localPort), int64(c.sndUna))
	mss := s.cfg.MSS
	flight := int(c.sndNxt - c.sndUna)
	c.ssthresh = max(flight/2, 2*mss)
	c.cwnd = c.ssthresh + 3*mss
	c.retransmitHeadLocked()
}

// retransmitHeadLocked resends the first unacknowledged segment (or the
// FIN when only the FIN is outstanding).
func (c *TCPConn) retransmitHeadLocked() {
	if n := min(c.stack.cfg.MSS, c.sndBuf.Len()); n > 0 {
		c.sendSegmentsLocked(c.sndUna, 0, n, flagACK|flagPSH)
	} else if c.finSent && !c.finAcked {
		c.sendSegmentsLocked(c.sndNxt-1, 0, 0, flagFIN|flagACK)
	}
	c.armTimerLocked()
}

func (c *TCPConn) processDataLocked(seg tcpSegment, cost simclock.Lat) {
	payload := seg.payload
	seq := seg.seq
	hasFin := seg.flags&flagFIN != 0
	if len(payload) == 0 && !hasFin {
		return
	}
	// Trim anything we already have.
	if seqLT(seq, c.rcvNxt) {
		skip := int(c.rcvNxt - seq)
		if skip >= len(payload) {
			if !(hasFin && seq+uint32(len(payload)) == c.rcvNxt) {
				// Pure duplicate: re-ACK so the sender advances.
				c.sendAckLocked()
				return
			}
			payload = nil
			seq = c.rcvNxt
		} else {
			payload = payload[skip:]
			seq += uint32(skip)
		}
	}
	switch {
	case seq == c.rcvNxt:
		// In-order data that fits is the one case whose ACK can wait: for
		// the connection's next segment, or else for flushAcksLocked.
		// Anything the sender is waiting on to make a decision is
		// acknowledged now: a FIN, a segment that fills (part of) a
		// reassembly gap, and data the window cut short — which includes
		// the zero-window probe, whose answer is what keeps the persist
		// timer from giving up.
		gap := len(c.ooo) > 0
		deferAck := c.acceptDataLocked(payload, cost) && !hasFin && !gap
		if hasFin && !c.peerFinRcvd {
			c.peerFinRcvd = true
			c.rcvNxt++
		}
		c.drainOutOfOrderLocked()
		if deferAck {
			c.holdAckLocked()
			return
		}
	default:
		// Future segment: stash a pooled copy for reassembly. The wire
		// frame recycles after the burst; the stash lives until the gap
		// fills (or the connection dies — see releaseOOOLocked).
		c.stack.stats.OutOfOrderSegs++
		if len(payload) > 0 {
			if _, dup := c.ooo[seq]; !dup {
				if fb := c.stack.pool.Get(len(payload)); fb != nil {
					copy(fb.Bytes(), payload)
					if c.ooo == nil {
						c.ooo = make(map[uint32]*fabric.FrameBuf)
					}
					c.ooo[seq] = fb
				} else {
					// Quota exhausted: drop the stash; retransmission
					// refills the gap once the tenant frees frames.
					c.stack.stats.RxQuotaDrops++
				}
			}
		}
		// FIN out of order is recovered by retransmission.
	}
	c.sendAckLocked()
}

// holdAckLocked owes the acknowledgement of in-order data just taken in,
// to the connection's next segment or else flushAcksLocked.
func (c *TCPConn) holdAckLocked() {
	if !c.ackPending {
		c.ackPending, c.ackSince = true, c.stack.pollSeq
	}
	if !c.ackQueued {
		c.ackQueued = true
		c.stack.ackQueue = append(c.stack.ackQueue, c)
	}
}

// acceptDataLocked queues in-order payload and reports whether all of it
// fit the receive window.
func (c *TCPConn) acceptDataLocked(payload []byte, cost simclock.Lat) bool {
	space := c.stack.cfg.RxWindow - c.rcvBuf.Len()
	n := min(len(payload), space)
	if n > 0 {
		c.rcvBuf.write(payload[:n], c.stack.cfg.RxWindow)
		c.rcvNxt += uint32(n)
		c.rxCost = cost
	}
	// Bytes beyond the window are dropped; the shrunken advertised
	// window makes the sender retransmit them later.
	return n == len(payload)
}

func (c *TCPConn) drainOutOfOrderLocked() {
	for {
		fb, ok := c.ooo[c.rcvNxt]
		if !ok {
			return
		}
		payload := fb.Bytes()
		space := c.stack.cfg.RxWindow - c.rcvBuf.Len()
		if space < len(payload) {
			return // keep it buffered until the app drains
		}
		delete(c.ooo, c.rcvNxt)
		c.rcvBuf.write(payload, c.stack.cfg.RxWindow)
		c.rcvNxt += uint32(len(payload))
		fb.Release()
	}
}

// releaseOOOLocked recycles every stashed out-of-order segment. Every
// connection-teardown path calls it so pooled buffers never leak with a
// dead connection.
func (c *TCPConn) releaseOOOLocked() {
	for seq, fb := range c.ooo {
		delete(c.ooo, seq)
		fb.Release()
	}
}

// abortLocked ends the connection at once with err, which every later
// call on it returns: stashed segments go back to the pool, the owner is
// told, and the stack forgets it.
func (c *TCPConn) abortLocked(err error) {
	c.err = err
	c.state = stateClosed
	c.releaseOOOLocked()
	c.updateReadyLocked()
	c.stack.forgetLocked(c)
}

func (c *TCPConn) maybeFinishLocked() {
	if c.finSent && c.finAcked && c.peerFinRcvd && c.state != stateClosed {
		c.state = stateClosed
		c.releaseOOOLocked()
		c.stack.forgetLocked(c)
	}
}

// --- segment output ---

func (c *TCPConn) advertisedWindowLocked() uint16 {
	w := c.stack.cfg.RxWindow - c.rcvBuf.Len()
	if w < 0 {
		w = 0
	}
	if w > 0xffff {
		w = 0xffff
	}
	return uint16(w)
}

func (c *TCPConn) sendAckLocked() {
	c.sendSegmentsLocked(c.sndNxt, 0, 0, flagACK)
}

// sendSegmentsLocked transmits the n bytes of the send queue starting off
// bytes past sndUna as segments of at most an MSS each, from sequence
// number seq on, all with flags (n == 0: one bare control segment). The
// bytes go from the ring straight into the outgoing frames: marshaled a
// segment at a time here, or, when there is more than one segment and the
// device has offloads, cut by the device from one descriptor
// (sendTSOLocked).
func (c *TCPConn) sendSegmentsLocked(seq uint32, off, n int, flags uint8) {
	s := c.stack
	seg := tcpSegment{
		srcPort: c.key.localPort,
		dstPort: c.key.remotePort,
		seq:     seq,
		ack:     c.rcvNxt,
		flags:   flags,
		window:  c.advertisedWindowLocked(),
	}
	c.advWnd = int(seg.window)
	// Every segment carries the cumulative ACK and the current window, so
	// whatever acknowledgement was still owed has now been sent.
	c.ackPending = false
	c.ackedTo = seg.ack
	cost := c.txCost + s.model.UserNetStackNS + s.cfg.PerPacketExtra
	if s.offloads && n > s.cfg.MSS && s.sendTSOLocked(c.key.remoteIP, seg, &c.sndBuf, off, n, cost) {
		return
	}
	for {
		k := min(n, s.cfg.MSS)
		s.stats.TCPSegsSent++
		s.stats.TCPDescsSent++
		seg.payload, seg.tail = c.sndBuf.spans(off, k)
		s.sendTCPLocked(c.key.remoteIP, seg, cost)
		if n -= k; n == 0 {
			return
		}
		off += k
		seg.seq += uint32(k)
	}
}

// sendTSOLocked hands the device one descriptor for seg with the n bytes
// of ring starting off bytes past its head as payload, to cut into MSS
// frames, and reports true — or false, sending nothing, while dst's MAC
// is unresolved (the segment-at-a-time path parks what it sends behind
// ARP). Each frame takes an IP id and counts as a segment sent, as it
// would a segment at a time.
func (s *Stack) sendTSOLocked(dst IPv4Addr, seg tcpSegment, ring *byteRing, off, n int, cost simclock.Lat) bool {
	mac, ok := s.resolveLocked(dst)
	if !ok {
		return false
	}
	frames := nic.TSOFrames(n, s.cfg.MSS)
	s.stats.TCPSegsSent += int64(frames)
	s.stats.TCPDescsSent++
	h := ipv4Header{id: s.ipID + 1, ttl: 64, proto: protoTCP, src: s.cfg.IP, dst: dst}
	s.ipID += uint16(frames)
	t := &s.tso
	t.Hdr = seg.appendTo(h.appendTo(appendEth(t.Hdr[:0], mac, s.dev.MAC(), etherTypeIPv4)))
	t.Payload[0], t.Payload[1] = ring.spans(off, n)
	t.MSS, t.Cost, t.Pool = s.cfg.MSS, cost, s.pool
	s.stats.TxQuotaDrops += int64(s.dev.TxTSO(t))
	t.Payload = [2][]byte{}
	return true
}

// sendTCPLocked marshals seg into an IPv4 packet to dst and transmits it.
func (s *Stack) sendTCPLocked(dst IPv4Addr, seg tcpSegment, cost simclock.Lat) {
	if tx, ok := s.openIPv4Locked(dst, protoTCP, tcpHdrLen+len(seg.payload)+len(seg.tail)); ok {
		if tx.csum == fabric.CsumPending {
			seg.appendTo(tx.l4)
		} else {
			seg.marshal(tx.l4, s.cfg.IP, dst)
		}
		s.sendIPv4Locked(tx, cost)
	}
}

// trySendLocked emits as much buffered data as the congestion and flow
// control windows allow, then a FIN if one is queued and the buffer is
// empty.
func (c *TCPConn) trySendLocked() {
	if c.state != stateEstablished {
		return
	}
	c.stack.shareClockLocked() // one read for the burst and the FIN
	defer c.stack.unshareClockLocked()
	flight := int(c.sndNxt - c.sndUna)
	if n := min(c.sndBuf.Len()-flight, min(c.peerWnd, c.cwnd)-flight); n > 0 {
		// One send burst: MSS segments, the last one what is left.
		c.sendSegmentsLocked(c.sndNxt, flight, n, flagACK|flagPSH)
		c.sndNxt += uint32(n)
		c.armTimerLocked()
	}
	if c.finQueued && !c.finSent && int(c.sndNxt-c.sndUna) == c.sndBuf.Len() {
		c.sendSegmentsLocked(c.sndNxt, 0, 0, flagFIN|flagACK)
		c.sndNxt++
		c.finSent = true
		c.armTimerLocked()
	}
	// Persist timer: data is queued but the peer window blocks it and no
	// timer is running. This happens when the peer closed its window
	// *after* everything in flight was ACKed (which cleared the timer) —
	// with nothing in flight there is no retransmission to recover a lost
	// window-update ACK, so without a probe the connection deadlocks
	// silently. Arm the timer; fireTimerLocked sends the one-byte
	// zero-window probe when it fires.
	if c.sndBuf.Len() > int(c.sndNxt-c.sndUna) && c.deadline == 0 {
		c.armTimerLocked()
	}
}
