package sim

import (
	"math/rand"
	"testing"
	"unsafe"
)

// TestEventSize pins the queued event at seven words on 64-bit platforms:
// events are copied through queue buckets and sorts on the hottest path,
// so a field added to the struct should be a deliberate choice.
func TestEventSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("size pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(event{}); got != 56 {
		t.Errorf("event is %d bytes, want 56", got)
	}
}

// popAll drains q, checking every pop against the reference heap, which
// predates the ladder queue and is kept as the far-future fallback. Both
// structures receive identical pushes; they must agree on the exact
// (at, seq) pop sequence.
func diffCheck(t *testing.T, q *eventQueue, ref *eventHeap) {
	t.Helper()
	for ref.Len() > 0 {
		if q.Len() != ref.Len() {
			t.Fatalf("lengths diverged: ladder %d, heap %d", q.Len(), ref.Len())
		}
		want := ref.Pop()
		if pt := q.Peek(); pt != want.at {
			t.Fatalf("Peek = %v, heap says %v", pt, want.at)
		}
		got := q.Pop()
		if got.at != want.at || got.seq != want.seq {
			t.Fatalf("ladder popped (at=%v seq=%d), heap popped (at=%v seq=%d)",
				got.at, got.seq, want.at, want.seq)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("ladder still holds %d events after heap drained", q.Len())
	}
}

// TestQueueDifferentialRandom drives the ladder queue and the reference
// heap with the same randomized workload: interleaved pushes and pops,
// monotonically advancing "now", horizons from sub-slot to far beyond the
// ladder (a 300 ms WAN wake-up is ~70 ladder rounds away), and heavy
// same-timestamp ties. Any divergence in pop order is a determinism bug.
func TestQueueDifferentialRandom(t *testing.T) {
	horizons := []Time{
		0,                 // all ties at now
		100,               // sub-slot
		50 * Microsecond,  // a few slots
		5 * Millisecond,   // just past the in-ladder horizon
		300 * Millisecond, // deep far-future heap territory
		2 * Second,        // absurdly far
	}
	for round := 0; round < 20; round++ {
		rng := rand.New(rand.NewSource(int64(round)))
		var q eventQueue
		var ref eventHeap
		var now Time
		var seq uint64
		push := func() {
			h := horizons[rng.Intn(len(horizons))]
			var at Time
			if h == 0 {
				at = now
			} else {
				at = now + Time(rng.Int63n(int64(h)+1))
			}
			seq++
			q.Push(event{at: at, seq: seq})
			ref.Push(event{at: at, seq: seq})
		}
		for op := 0; op < 2000; op++ {
			if ref.Len() == 0 || rng.Intn(3) > 0 {
				push()
				continue
			}
			want := ref.Pop()
			got := q.Pop()
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("round %d op %d: ladder (at=%v seq=%d) vs heap (at=%v seq=%d)",
					round, op, got.at, got.seq, want.at, want.seq)
			}
			if want.at < now {
				t.Fatalf("round %d: reference heap went backwards", round)
			}
			now = want.at // pushes never predate the last popped time, as in the kernel
		}
		diffCheck(t, &q, &ref)
	}
}

// TestQueuePopOrderProperty is the standalone ordering property: whatever
// the push pattern, pops come out in strictly increasing (at, seq) order.
func TestQueuePopOrderProperty(t *testing.T) {
	for round := 0; round < 10; round++ {
		rng := rand.New(rand.NewSource(1000 + int64(round)))
		var q eventQueue
		var now Time
		var seq uint64
		pending := 0
		var lastAt Time
		var lastSeq uint64
		first := true
		for op := 0; op < 3000; op++ {
			if pending == 0 || rng.Intn(2) == 0 {
				seq++
				at := now + Time(rng.Int63n(int64(10*Millisecond)))
				q.Push(event{at: at, seq: seq})
				pending++
				continue
			}
			ev := q.Pop()
			pending--
			if ev.at < now {
				t.Fatalf("round %d: popped %v before now %v", round, ev.at, now)
			}
			if !first {
				if ev.at < lastAt || (ev.at == lastAt && ev.seq <= lastSeq) {
					t.Fatalf("round %d: pop order violated: (%v,%d) after (%v,%d)",
						round, ev.at, ev.seq, lastAt, lastSeq)
				}
			}
			first = false
			lastAt, lastSeq = ev.at, ev.seq
			now = ev.at
		}
	}
}

// TestQueueFarFutureMigration pins the regime boundary: events pushed far
// beyond the ladder horizon must still pop in global order as the current
// slot advances toward them.
func TestQueueFarFutureMigration(t *testing.T) {
	var q eventQueue
	var seq uint64
	push := func(at Time) {
		seq++
		q.Push(event{at: at, seq: seq})
	}
	// One event per decade of delay, pushed in reverse order.
	delays := []Time{300 * Millisecond, 30 * Millisecond, 3 * Millisecond,
		300 * Microsecond, 30 * Microsecond, 3 * Microsecond}
	for _, d := range delays {
		push(d)
	}
	var prev Time = -1
	for q.Len() > 0 {
		ev := q.Pop()
		if ev.at <= prev {
			t.Fatalf("pop order violated at %v after %v", ev.at, prev)
		}
		prev = ev.at
	}
	if prev != 300*Millisecond {
		t.Fatalf("last pop at %v, want 300ms", prev)
	}
}
