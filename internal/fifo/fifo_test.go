package fifo

import (
	"math/rand"
	"testing"
)

// TestQueueMatchesSliceModel drives a Queue with seeded random pushes and
// pops against a plain slice and checks length, order and every Ref after
// each operation. The mix is biased to fill the ring with its head moved
// off slot 0, so growth copies a wrapped ring; the test fails if that case
// never happens.
func TestQueueMatchesSliceModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q Queue[int]
		var model []int
		wrappedGrows := 0
		next := 0
		for op := 0; op < 2000; op++ {
			if len(model) == 0 || rng.Intn(3) != 0 {
				if q.n == len(q.buf) && q.head != 0 {
					wrappedGrows++
				}
				q.Push(next)
				model = append(model, next)
				next++
			} else {
				if got := q.Pop(); got != model[0] {
					t.Fatalf("seed %d op %d: Pop = %d, want %d", seed, op, got, model[0])
				}
				model = model[1:]
			}
			if q.Len() != len(model) {
				t.Fatalf("seed %d op %d: Len = %d, want %d", seed, op, q.Len(), len(model))
			}
			for i, want := range model {
				if got := *q.Ref(i); got != want {
					t.Fatalf("seed %d op %d: Ref(%d) = %d, want %d", seed, op, i, got, want)
				}
			}
			// Occasionally drain to a short queue, so the ring is refilled
			// (and grown) from a wrapped head many times.
			if rng.Intn(200) == 0 {
				for len(model) > 3 {
					if got := q.Pop(); got != model[0] {
						t.Fatalf("seed %d op %d: Pop = %d, want %d", seed, op, got, model[0])
					}
					model = model[1:]
				}
			}
		}
		if wrappedGrows == 0 {
			t.Errorf("seed %d: no push grew a full ring with its head wrapped", seed)
		}
	}
}

// TestQueueGrowsWrapped grows a full 8-slot ring whose head sits mid-ring
// and checks order, that the ring doubled, and that popped slots are
// cleared so a queue of pointers keeps nothing alive.
func TestQueueGrowsWrapped(t *testing.T) {
	var q Queue[*int]
	vals := make([]int, 14)
	for i := 0; i < 8; i++ {
		q.Push(&vals[i])
	}
	for i := 0; i < 5; i++ {
		if q.Pop() != &vals[i] {
			t.Fatalf("pop %d out of order", i)
		}
	}
	for i := 8; i < 13; i++ {
		q.Push(&vals[i]) // wraps past slot 7
	}
	if q.head != 5 || len(q.buf) != 8 || q.Len() != 8 {
		t.Fatalf("head %d, ring %d, len %d: want a full 8-slot ring with head 5", q.head, len(q.buf), q.Len())
	}
	q.Push(&vals[13]) // full: grows
	if len(q.buf) != 16 || q.head != 0 || q.Len() != 9 {
		t.Fatalf("after growth: ring %d, head %d, len %d; want 16, 0, 9", len(q.buf), q.head, q.Len())
	}
	var want []*int
	for i := 5; i < 14; i++ {
		want = append(want, &vals[i])
	}
	for i, w := range want {
		if q.Pop() != w {
			t.Fatalf("after growth: pop %d out of order", i)
		}
	}
	for i, p := range q.buf {
		if p != nil {
			t.Errorf("slot %d still holds a popped item", i)
		}
	}
}

// TestFreeSlabGrowth takes records without returning any and checks each
// slab: an eighth of the records so far, at least 16, with room to take
// every record back without growing.
func TestFreeSlabGrowth(t *testing.T) {
	var l Free[[4]int]
	wantTotal := 0
	seen := map[*[4]int]bool{}
	for i := 0; i < 2000; i++ {
		if len(l.free) == 0 {
			wantTotal += max(16, wantTotal/8)
		}
		p := l.Get()
		if seen[p] {
			t.Fatalf("get %d: record handed out twice", i)
		}
		seen[p] = true
		if *p != [4]int{} {
			t.Fatalf("get %d: record not zeroed", i)
		}
		if l.total != wantTotal {
			t.Fatalf("get %d: %d records, want %d", i, l.total, wantTotal)
		}
		if cap(l.free) < l.total {
			t.Fatalf("get %d: free list holds %d, not every one of %d records", i, cap(l.free), l.total)
		}
	}
}

// TestFreeReuse checks that returned records are zeroed and handed out
// again, last in first out, and that a list at its peak allocates nothing.
func TestFreeReuse(t *testing.T) {
	var l Free[[4]int]
	recs := make([]*[4]int, 40)
	for i := range recs {
		recs[i] = l.Get()
		recs[i][0] = i + 1
	}
	for _, p := range recs {
		l.Put(p)
		if *p != [4]int{} {
			t.Fatal("Put left the record's contents")
		}
	}
	for i := len(recs) - 1; i >= 0; i-- {
		if p := l.Get(); p != recs[i] {
			t.Fatalf("get after puts: got a record other than the last one put")
		}
	}
	for _, p := range recs {
		l.Put(p)
	}
	total := l.total
	allocs := testing.AllocsPerRun(100, func() {
		for i := range recs {
			recs[i] = l.Get()
		}
		for _, p := range recs {
			l.Put(p)
		}
	})
	if allocs != 0 || l.total != total {
		t.Errorf("at its peak the list allocated %.0f times and grew from %d to %d records", allocs, total, l.total)
	}
}

// TestFreeNil checks that a nil list allocates every record and takes none
// back.
func TestFreeNil(t *testing.T) {
	var l *Free[int]
	a, b := l.Get(), l.Get()
	if a == b {
		t.Fatal("nil list handed out one record twice")
	}
	*a = 7
	l.Put(a)
	if *a != 7 {
		t.Error("nil list's Put touched the record")
	}
}
