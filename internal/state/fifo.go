package state

// fifo is a queue on a ring buffer: the retention queues push one entry and
// pop one per transition, and once the ring has grown to the bound neither
// allocates.
type fifo[T any] struct {
	buf  []T
	head int
	n    int
}

func (q *fifo[T]) len() int { return q.n }

// at returns the i-th entry from the head, the next to pop.
func (q *fifo[T]) at(i int) T { return q.buf[(q.head+i)%len(q.buf)] }

func (q *fifo[T]) push(v T) {
	if q.n == len(q.buf) {
		buf := make([]T, max(2*q.n, 8))
		for i := range q.n {
			buf[i] = q.at(i)
		}
		q.buf, q.head = buf, 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = v
	q.n++
}

// pop removes and returns the head entry, dropping the ring's reference to
// it.
func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return v
}
