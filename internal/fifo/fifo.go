// Package fifo holds the recycled storage every simulator component owns:
// Queue, a ring that grows only when full, and Free, a free list that grows
// in slabs. Both settle at the peak number of items in flight and then stop
// allocating.
package fifo

// Queue is a first-in first-out queue. The zero value is empty.
type Queue[T any] struct {
	buf  []T // power-of-two ring
	head int
	n    int
}

// Len returns the number of queued items.
//
//nic:hotpath
func (q *Queue[T]) Len() int { return q.n }

// Push appends v at the tail.
//
//nic:hotpath
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		buf := make([]T, max(2*len(q.buf), 8)) //nic:alloc grows to the peak length
		for i := range q.n {
			buf[i] = *q.Ref(i)
		}
		q.buf, q.head = buf, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Pop removes and returns the oldest item; the queue must not be empty.
//
//nic:hotpath
func (q *Queue[T]) Pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// Ref returns the i-th oldest item's address, valid until the next Push.
func (q *Queue[T]) Ref(i int) *T { return &q.buf[(q.head+i)&(len(q.buf)-1)] }

// Free is a free list of records. When it runs dry it allocates a slab of an
// eighth of the records it has so far (at least 16), so later peaks a little
// above the first need no allocation. A nil list allocates every record and
// takes none back.
type Free[T any] struct {
	free  []*T
	total int
}

// Get returns a zeroed record.
//
//nic:hotpath
func (l *Free[T]) Get() *T {
	if l == nil {
		return new(T) //nic:alloc no list
	}
	if len(l.free) == 0 {
		slab := make([]T, max(16, l.total/8)) //nic:alloc grows to the peak in flight
		l.total += len(slab)
		l.free = make([]*T, len(slab), l.total) //nic:alloc room for every record
		for i := range slab {
			l.free[i] = &slab[i]
		}
	}
	p := l.free[len(l.free)-1]
	l.free = l.free[:len(l.free)-1]
	return p
}

// Put zeroes p and takes it back; nothing may use p afterwards.
//
//nic:hotpath
func (l *Free[T]) Put(p *T) {
	if l == nil {
		return
	}
	var zero T
	*p = zero
	l.free = append(l.free, p) //nic:alloc never grows: Get sized it
}
