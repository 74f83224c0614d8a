package sim

import (
	"math/bits"
	"slices"
)

// event is a scheduled unit of work in virtual time. The seq field breaks
// ties between events scheduled for the same instant: earlier-scheduled
// events fire first, which makes the simulation fully deterministic.
//
// An event wakes a process (proc != nil), invokes a preallocated handler
// with an integer token (h != nil), or runs a callback (fire). Carrying the
// process pointer or the handler directly keeps the scheduler's hottest
// operations — Compute/Sleep wake-ups, process starts, and message
// deliveries — free of closure allocations: the closure form remains only
// for cold setup paths and external callers.
type event struct {
	at    Time
	seq   uint64
	proc  *Proc        // if non-nil, wake/start this process
	h     EventHandler // else if non-nil, call h.HandleEvent(token)
	token uint64
	fire  func() // otherwise, run this callback
}

// The near-future band of the ladder queue: a ring of numBuckets buckets,
// each slotWidth of virtual time wide. slotBits = 14 gives 16.4 us buckets —
// the scale of the model's software overheads and intra-cluster latencies —
// and a horizon of numBuckets * 16.4 us ≈ 4.2 ms. Events beyond the horizon
// (wide-area messages at 10-300 ms latency) overflow into a binary heap and
// are merged back slot by slot as the clock reaches them.
const (
	slotBits   = 14
	numBuckets = 256
	bucketMask = numBuckets - 1
)

func slotOf(at Time) int64 { return int64(at) >> slotBits }

// eventQueue is a two-level ladder/calendar queue ordered by (at, seq).
//
// Near-future events (within ~4.2 ms of the active slot) are appended to
// ring buckets in O(1); a bucket is sorted once when the clock enters its
// slot, so push/pop are O(1) amortized for the near band. Far-future events
// fall back to a binary min-heap, preserving O(log n) worst-case behavior
// for sparse long-latency events. The pop order is bit-identical to a
// single global heap: strictly ascending (at, seq).
//
// The zero value is an empty queue ready for use.
type eventQueue struct {
	size int

	// curSlot is the slot whose events are staged in active; all earlier
	// slots have fully drained. active[activeIdx:] is sorted by (at, seq).
	curSlot   int64
	active    []event
	activeIdx int

	// buckets[s&bucketMask] holds the unsorted events of slot s for
	// s in (curSlot, curSlot+numBuckets); occupied is its non-empty bitmap.
	buckets  [numBuckets][]event
	occupied [numBuckets / 64]uint64

	// far holds events at or beyond the horizon.
	far eventHeap
}

func (q *eventQueue) Len() int { return q.size }

// Push inserts an event. Amortized O(1) for events within the near-future
// horizon, O(log f) for the f far-future events beyond it.
func (q *eventQueue) Push(e event) {
	q.size++
	s := slotOf(e.at)
	switch {
	case s <= q.curSlot:
		// The active slot (or, defensively, the past — the kernel forbids
		// scheduling before now): ordered insert into the remaining run.
		q.insertActive(e)
	case s < q.curSlot+numBuckets:
		i := s & bucketMask
		q.buckets[i] = append(q.buckets[i], e)
		q.occupied[i>>6] |= 1 << (i & 63)
	default:
		q.far.Push(e)
	}
}

// insertActive places e into the sorted tail active[activeIdx:]. The tail is
// almost always tiny (events of a single 16 us slot), so the copy is cheap.
func (q *eventQueue) insertActive(e event) {
	lo, hi := q.activeIdx, len(q.active)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		m := &q.active[mid]
		if e.at < m.at || (e.at == m.at && e.seq < m.seq) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	q.active = append(q.active, event{})
	copy(q.active[lo+1:], q.active[lo:])
	q.active[lo] = e
}

// Pop removes and returns the earliest event by (at, seq). It panics on an
// empty queue; the kernel always checks Len first.
func (q *eventQueue) Pop() event {
	if q.activeIdx == len(q.active) {
		q.advance()
	}
	e := q.active[q.activeIdx]
	q.active[q.activeIdx] = event{} // release the closure for GC
	q.activeIdx++
	q.size--
	return e
}

// Peek returns the earliest event time without removing it.
func (q *eventQueue) Peek() Time {
	if q.size == 0 {
		return MaxTime
	}
	if q.activeIdx == len(q.active) {
		q.advance()
	}
	return q.active[q.activeIdx].at
}

// advance moves the queue to the next non-empty slot: the earliest occupied
// ring bucket or the far heap's front slot, whichever is sooner. The slot's
// events (ring bucket plus any far events that fall in it) are staged into
// active and sorted once.
func (q *eventQueue) advance() {
	q.active = q.active[:0]
	q.activeIdx = 0

	ringSlot, ok := q.nextOccupiedSlot()
	farSlot := int64(0)
	haveFar := q.far.Len() > 0
	if haveFar {
		farSlot = slotOf(q.far.PeekTime())
	}

	var s int64
	switch {
	case ok && (!haveFar || ringSlot <= farSlot):
		s = ringSlot
	case haveFar:
		s = farSlot
	default:
		panic("sim: advance on empty event queue")
	}

	if ok && ringSlot == s {
		i := s & bucketMask
		q.active = append(q.active, q.buckets[i]...)
		b := q.buckets[i][:0]
		clear(q.buckets[i])
		q.buckets[i] = b
		q.occupied[i>>6] &^= 1 << (i & 63)
	}
	for q.far.Len() > 0 && slotOf(q.far.PeekTime()) == s {
		q.active = append(q.active, q.far.Pop())
	}
	// slices.SortFunc, not sort.Slice: the reflection-based sorter allocates
	// a closure header per call, which at one advance per occupied slot was
	// the last per-event allocation on the steady-state run path. (at, seq)
	// is a total order — seq is unique — so sort stability is irrelevant and
	// any correct sort yields the same, bit-exact event order.
	slices.SortFunc(q.active, func(x, y event) int {
		if x.at != y.at {
			if x.at < y.at {
				return -1
			}
			return 1
		}
		if x.seq < y.seq {
			return -1
		}
		return 1
	})
	q.curSlot = s
}

// nextOccupiedSlot scans the occupancy bitmap in ring order for the
// earliest slot after curSlot that holds events. O(1): at most five
// word-sized probes regardless of occupancy.
func (q *eventQueue) nextOccupiedSlot() (int64, bool) {
	// Ring slots lie in (curSlot, curSlot+numBuckets); walk indices starting
	// just after curSlot's own position, wrapping around the ring. The slot
	// distance from curSlot+1 is exactly the scan offset, so the first set
	// bit found is the earliest occupied slot.
	start := (q.curSlot + 1) & bucketMask
	for off := int64(0); off < numBuckets; {
		idx := (start + off) & bucketMask
		b := idx & 63
		word := q.occupied[idx>>6] >> uint(b)
		if word != 0 {
			tz := int64(bits.TrailingZeros64(word))
			if off+tz < numBuckets {
				return q.curSlot + 1 + off + tz, true
			}
			return 0, false
		}
		off += 64 - b
	}
	return 0, false
}

// eventHeap is a binary min-heap of events ordered by (at, seq): the
// queue's far-future overflow and the reference implementation for the
// ladder's differential tests. It is hand-rolled rather than built on
// container/heap to avoid the per-operation interface boxing.
type eventHeap struct {
	items []event
}

func (q *eventHeap) Len() int { return len(q.items) }

func (q *eventHeap) less(i, j int) bool {
	a, b := &q.items[i], &q.items[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Push inserts an event into the heap.
func (q *eventHeap) Push(e event) {
	q.items = append(q.items, e)
	i := len(q.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

// Pop removes and returns the earliest event. It panics on an empty heap.
func (q *eventHeap) Pop() event {
	top := q.items[0]
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	q.items[last] = event{} // release the closure for GC
	q.items = q.items[:last]
	q.siftDown(0)
	return top
}

func (q *eventHeap) siftDown(i int) {
	n := len(q.items)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		smallest := left
		if right := left + 1; right < n && q.less(right, left) {
			smallest = right
		}
		if !q.less(smallest, i) {
			return
		}
		q.items[i], q.items[smallest] = q.items[smallest], q.items[i]
		i = smallest
	}
}

// PeekTime returns the earliest event time without removing it.
func (q *eventHeap) PeekTime() Time {
	if len(q.items) == 0 {
		return MaxTime
	}
	return q.items[0].at
}
