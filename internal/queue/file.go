package queue

import (
	"slices"
	"sync"

	"demikernel/internal/sga"
	"demikernel/internal/simclock"
)

// Log is one path's record stream, the layout a libOS gives its file
// queues: catnap's length-prefixed kernel file, catfish's blob-store file.
// Records are numbered from 0 in append order and never change once
// appended. A Log is safe for concurrent use.
type Log interface {
	// Append durably appends rec and returns what the append cost.
	Append(rec []byte) (simclock.Lat, error)
	// Len returns the number of records appended so far.
	Len() int
	// Read returns record i, i < Len(), and what reading it cost.
	Read(i int) ([]byte, simclock.Lat, error)
}

// Files is a transport's file paths: each path's log, created by its first
// open and shared by every queue open on it for the transport's life. A
// push through one queue pumps every queue open on its path, so it answers
// a pop parked on another with no poll. The zero value has no paths.
type Files struct {
	mu    sync.Mutex
	paths map[string]*filePath
}

// filePath is one path's log and the queues open on it. open is
// copy-on-write: a push pumps a snapshot of it outside Files.mu, an open
// appends past what any snapshot covers, and a close builds a new slice.
type filePath struct {
	log  Log
	open []*FileQueue
}

// Open returns a new queue over path's log, its cursor on the first
// record. The path's first open creates the log with create.
func (f *Files) Open(path string, create func() (Log, error)) (IoQueue, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	p := f.paths[path]
	if p == nil {
		log, err := create()
		if err != nil {
			return nil, err
		}
		if f.paths == nil {
			f.paths = make(map[string]*filePath)
		}
		p = &filePath{log: log}
		f.paths[path] = p
	}
	q := &FileQueue{files: f, path: p}
	p.open = append(p.open, q)
	return q, nil
}

// Opens returns how many queues are open on path.
func (f *Files) Opens(path string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if p := f.paths[path]; p != nil {
		return len(p.open)
	}
	return 0
}

// FileQueue is a file queue: an append-only record stream where a push
// durably appends one scatter-gather array, in its wire encoding, and a
// pop returns the next record this queue has not read. Each open has its
// own cursor over the path's one log, so an SGA pushed through any queue
// on the path pops out of every one of them as a single element.
type FileQueue struct {
	files *Files
	path  *filePath

	mu     sync.Mutex
	cursor int     // the next record this queue pops
	pops   PopSide // the parked pops; nothing is held
}

// Push implements IoQueue. Once the record is durable s is freed, so a
// pooled buffer recycles here; a failed push leaves s with the caller, who
// may retry with it. Then every queue open on the path is pumped.
func (q *FileQueue) Push(s sga.SGA, cost simclock.Lat, done DoneFunc) {
	q.mu.Lock()
	closed := q.pops.Closed()
	q.mu.Unlock()
	if closed {
		done(Completion{Kind: OpPush, Err: ErrClosed})
		return
	}
	c, err := q.path.log.Append(s.Marshal())
	if err != nil {
		done(Completion{Kind: OpPush, Err: err})
		return
	}
	s.Free()
	done(Completion{Kind: OpPush, Cost: cost + c})
	q.files.mu.Lock()
	open := q.path.open
	q.files.mu.Unlock()
	for _, o := range open {
		o.Pump()
	}
}

// Pop implements IoQueue: the next unread record, or a wait until one is
// appended.
func (q *FileQueue) Pop(done DoneFunc) {
	q.mu.Lock()
	c, ok := q.pops.Pop(done)
	q.mu.Unlock()
	if ok {
		done(c)
		return
	}
	q.Pump()
}

// Pump implements IoQueue: it answers the parked pops, oldest first, from
// the records past the cursor. Each record is read under the queue's lock,
// so two pumps cannot answer pops out of cursor order. A read that fails
// fails the pop and leaves the cursor on the record, for the next pop to
// read again; a record that reads but does not decode fails the pop and
// is skipped.
func (q *FileQueue) Pump() int {
	n := 0
	for {
		q.mu.Lock()
		if q.pops.Parked() == 0 || q.cursor >= q.path.log.Len() {
			q.mu.Unlock()
			return n
		}
		rec, cost, err := q.path.log.Read(q.cursor)
		c := Completion{Kind: OpPop, Err: err}
		if err == nil {
			q.cursor++
			if c.SGA, _, c.Err = sga.Unmarshal(rec); c.Err == nil {
				c.Cost = cost
				n++
			}
		}
		w, _ := q.pops.Deliver(c)
		q.mu.Unlock()
		w(c)
	}
}

// Close implements IoQueue: the parked pops fail with ErrClosed and the
// queue leaves its path, so pushes stop pumping it.
func (q *FileQueue) Close() error {
	q.mu.Lock()
	if q.pops.Closed() {
		q.mu.Unlock()
		return nil
	}
	dropped := q.pops.Close()
	q.mu.Unlock()
	q.files.mu.Lock()
	q.path.open = slices.DeleteFunc(slices.Clone(q.path.open), func(o *FileQueue) bool { return o == q })
	q.files.mu.Unlock()
	dropped.Settle()
	return nil
}
