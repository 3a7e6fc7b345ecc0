package mxs

// Event-driven scheduler plumbing: a binary min-heap of (cycle, uid)
// events and a window-slot bitset iterated in age order. Both structures
// reference ROB entries by physical slot plus a monotone dispatch uid;
// squash invalidates entries by zeroing their uid, and consumers discard
// stale heap/wakeup references lazily. Sequence numbers cannot serve as
// the validity token because squash rewinds nextSeq (seqs are reused);
// uids are never reused.

import "math/bits"

// schedEvent is one pending scheduler event: at the earliest, the entry
// in `slot` (validated by uid) becomes actionable at cycle `at`.
type schedEvent struct {
	at   uint64
	uid  uint64
	slot int32
}

// eventHeap is a binary min-heap ordered by (at, uid). Because uids are
// assigned in dispatch order and every latency is >= 1 cycle, popping
// events due at the current cycle yields entries in age order — the same
// order the old per-cycle window scan visited them (DESIGN.md §11).
type eventHeap struct {
	h []schedEvent
}

func (q *eventHeap) len() int { return len(q.h) }

func (q *eventHeap) reset() { q.h = q.h[:0] }

func (q *eventHeap) less(i, j int) bool {
	a, b := &q.h[i], &q.h[j]
	return a.at < b.at || (a.at == b.at && a.uid < b.uid)
}

func (q *eventHeap) push(e schedEvent) {
	q.h = append(q.h, e)
	i := len(q.h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q.h[i], q.h[p] = q.h[p], q.h[i]
		i = p
	}
}

func (q *eventHeap) pop() schedEvent {
	top := q.h[0]
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h = q.h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && q.less(l, s) {
			s = l
		}
		if r < n && q.less(r, s) {
			s = r
		}
		if s == i {
			break
		}
		q.h[i], q.h[s] = q.h[s], q.h[i]
		i = s
	}
	return top
}

// slotBits is a bitset over physical window slots. A slot is stable for
// an entry's whole lifetime (head advances, entries never move), so bits
// survive commits of older entries without fixup.
type slotBits struct {
	w []uint64
	n int
}

func newSlotBits(n int) slotBits {
	return slotBits{w: make([]uint64, (n+63)/64), n: n}
}

func (b *slotBits) set(i int)   { b.w[i>>6] |= 1 << (uint(i) & 63) }
func (b *slotBits) clear(i int) { b.w[i>>6] &^= 1 << (uint(i) & 63) }

func (b *slotBits) reset() {
	for i := range b.w {
		b.w[i] = 0
	}
}

func (b *slotBits) empty() bool {
	for _, w := range b.w {
		if w != 0 {
			return false
		}
	}
	return true
}

func (b *slotBits) count() int {
	n := 0
	for _, w := range b.w {
		n += bits.OnesCount64(w)
	}
	return n
}
