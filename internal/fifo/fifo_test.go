package fifo

import (
	"math/rand"
	"slices"
	"testing"
)

// TestQueueAgainstSlice drives a Queue and a plain slice through the
// same random pushes, pops and takes; they must agree after every step,
// across growth and wraparound.
func TestQueueAgainstSlice(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		var q Queue[int]
		var model []int
		next := 0
		for step := 0; step < 20000; step++ {
			switch op := r.Intn(100); {
			case op < 50:
				q.Push(next)
				model = append(model, next)
				next++
			case op < 98:
				if len(model) == 0 {
					continue
				}
				if got := *q.Front(); got != model[0] {
					t.Fatalf("seed %d step %d: Front = %d, want %d", seed, step, got, model[0])
				}
				if got := q.Pop(); got != model[0] {
					t.Fatalf("seed %d step %d: Pop = %d, want %d", seed, step, got, model[0])
				}
				model = model[1:]
			default:
				if got := q.Take(); !slices.Equal(got, model) {
					t.Fatalf("seed %d step %d: Take = %v, want %v", seed, step, got, model)
				}
				model = nil
			}
			if q.Len() != len(model) {
				t.Fatalf("seed %d step %d: Len = %d, want %d", seed, step, q.Len(), len(model))
			}
		}
	}
}

// TestQueuePinsNothingAndKeepsItsArray: the two defects of the slice
// idioms. A popped slot must be zeroed (`q = q[1:]` left every popped
// pointer reachable from the backing array), and steady churn must
// reuse one array (the same reslice made append regrow it forever).
func TestQueuePinsNothingAndKeepsItsArray(t *testing.T) {
	var q Queue[*int]
	for i := 0; i < 3; i++ {
		q.Push(new(int))
	}
	array := &q.buf[0]
	for round := 0; round < 1000; round++ {
		q.Push(new(int))
		q.Pop()
	}
	if &q.buf[0] != array {
		t.Fatal("churn at a steady depth of 3 reallocated the backing array")
	}
	live := 0
	for _, p := range q.buf {
		if p != nil {
			live++
		}
	}
	if live != q.Len() {
		t.Fatalf("backing array holds %d pointers for %d queued elements", live, q.Len())
	}
	if taken := q.Take(); len(taken) != 3 || q.Len() != 0 || q.buf != nil {
		t.Fatalf("Take returned %d elements and left Len %d", len(taken), q.Len())
	}
}
