package olsr

import (
	"slices"
	"time"

	"repro/internal/addr"
)

// Duplicate-set layout (DESIGN.md §10.1).
const (
	// dupSlots bounds the dense originator range: an originator whose
	// host index (addr.Node.Index) is below it is keyed by that index.
	// It covers every population the presets and the scale corpus build
	// (at most 500 nodes) eight times over, and caps a node's slot array
	// at 96 KiB.
	dupSlots = 1 << 12
	// dupWindow is the number of tuples a slot holds in place. An honest
	// originator has at most ⌈30 s / 3.75 s⌉ = 8 TC sequence numbers
	// live: one TC every 5 s less up to 25% jitter, each held 30 s.
	dupWindow = 8
)

// dupKey identifies a flooded message: originator << 16 | sequence
// number. It keys the expiry queue and the spill map.
type dupKey uint64

func newDupKey(orig addr.Node, seq uint16) dupKey { return dupKey(orig)<<16 | dupKey(seq) }

func (k dupKey) orig() addr.Node { return addr.Node(k >> 16) }
func (k dupKey) seq() uint16     { return uint16(k) }

// dupTuple tracks one flooded message per RFC 3626 §3.4: whether its body
// was already processed and whether it was already retransmitted. The two
// are independent — a copy can arrive first via a path that forbids
// forwarding and later via one that allows it. The originator is the
// tuple's slot (or its spill key), so a tuple packs into 16 bytes.
type dupTuple struct {
	until         time.Duration
	seq           uint16
	processed     bool
	retransmitted bool
}

// dupSet is the duplicate set, keyed by the originator's dense slot. A
// slot is a window of up to dupWindow live tuples in no particular order,
// carved from chunk when the originator's first tuple is stored, so an
// originator never heard from costs one empty slice header. Originators
// outside the dense range, and tuples that find their window full, go to
// spill, a map to tuples carved one at a time from their own chunk, so a
// burst of spills costs amortized chunk and map growth rather than one
// allocation each; a spill chunk is freed once none of its tuples is
// held. A key is held in one place only: its window or spill.
//
// The set is only ever looked up by key, and is expired in dupQueue
// order. A pointer returned by ref or get stays valid until the next
// delete.
type dupSet struct {
	slots      [][]dupTuple // by originator host index
	chunk      []dupTuple   // windows are carved from here
	spill      map[dupKey]*dupTuple
	spillChunk []dupTuple // spilled tuples are carved from here
}

// window returns orig's slot, or nil when orig is outside the dense
// range or beyond the slot array (which then holds none of its tuples).
func (s *dupSet) window(orig addr.Node) *[]dupTuple {
	if i := uint(orig.Index()); i < uint(len(s.slots)) {
		return &s.slots[i]
	}
	return nil
}

// find returns the index of seq's tuple in w, or -1.
func find(w []dupTuple, seq uint16) int {
	for i := range w {
		if w[i].seq == seq {
			return i
		}
	}
	return -1
}

// ref returns k's tuple, storing a zero one first when k is absent;
// created reports whether it did.
func (s *dupSet) ref(k dupKey) (d *dupTuple, created bool) {
	w := s.window(k.orig())
	if w != nil {
		if i := find(*w, k.seq()); i >= 0 {
			return &(*w)[i], false
		}
	}
	if d := s.spill[k]; d != nil {
		return d, false
	}
	if w == nil {
		if i := uint(k.orig().Index()); i < dupSlots {
			// Grow the slot array to cover i, by append's amortized rule.
			// slices.Grow, not append of a make: under -race the make's
			// temporary is a real allocation.
			n := len(s.slots)
			s.slots = slices.Grow(s.slots, int(i)+1-n)[:i+1]
			clear(s.slots[n:])
			w = &s.slots[i]
		}
	}
	if w != nil && cap(*w) == 0 {
		*w = carve(&s.chunk, dupWindow)
	}
	if w != nil && len(*w) < cap(*w) {
		*w = append(*w, dupTuple{seq: k.seq()})
		return &(*w)[len(*w)-1], true
	}
	if s.spill == nil {
		s.spill = make(map[dupKey]*dupTuple)
	}
	d = &carve(&s.spillChunk, 1)[:1][0]
	*d = dupTuple{seq: k.seq()}
	s.spill[k] = d
	return d, true
}

// get returns k's tuple, or nil when k is absent.
func (s *dupSet) get(k dupKey) *dupTuple {
	if w := s.window(k.orig()); w != nil {
		if i := find(*w, k.seq()); i >= 0 {
			return &(*w)[i]
		}
	}
	return s.spill[k]
}

// delete removes k's tuple, if any. A window closes the gap with its last
// tuple, so the window keeps its storage for the originator's next ones.
func (s *dupSet) delete(k dupKey) {
	if w := s.window(k.orig()); w != nil {
		if i := find(*w, k.seq()); i >= 0 {
			last := len(*w) - 1
			(*w)[i] = (*w)[last]
			*w = (*w)[:last]
			return
		}
	}
	delete(s.spill, k)
}
