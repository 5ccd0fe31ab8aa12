package olsr

import (
	"fmt"
	"iter"
	"maps"
	"slices"
	"testing"
	"time"

	"repro/internal/addr"
)

// all walks every tuple of the duplicate set: the windows in slot order,
// then the spill in key order. It is the one walk the test oracles use;
// the node itself never ranges over the set.
func (s *dupSet) all() iter.Seq2[dupKey, dupTuple] {
	return func(yield func(dupKey, dupTuple) bool) {
		for i, w := range s.slots {
			for _, d := range w {
				if !yield(newDupKey(addr.NodeAt(i), d.seq), d) {
					return
				}
			}
		}
		for _, k := range slices.Sorted(maps.Keys(s.spill)) {
			if !yield(k, *s.spill[k]) {
				return
			}
		}
	}
}

// checkDupSet verifies the layout of s and returns its tuples by key.
// The slot array stays within the dense range, every window has the
// carved capacity, every key is held once, a spilled tuple carries its
// key's sequence number, and get finds every tuple the walk yields.
func checkDupSet(s *dupSet) (map[dupKey]dupTuple, error) {
	if len(s.slots) > dupSlots {
		return nil, fmt.Errorf("%d duplicate slots, the dense range has %d", len(s.slots), dupSlots)
	}
	for i, w := range s.slots {
		if c := cap(w); c != 0 && c != dupWindow {
			return nil, fmt.Errorf("the window of %v has capacity %d, want %d", addr.NodeAt(i), c, dupWindow)
		}
	}
	for k, d := range s.spill {
		if d.seq != k.seq() {
			return nil, fmt.Errorf("spilled tuple %s holds sequence number %d", dupName(k), d.seq)
		}
	}
	tuples := make(map[dupKey]dupTuple)
	for k, d := range s.all() {
		if _, ok := tuples[k]; ok {
			return nil, fmt.Errorf("duplicate tuple %s is held twice", dupName(k))
		}
		tuples[k] = d
		if got := s.get(k); got == nil || *got != d {
			return nil, fmt.Errorf("get(%s) = %v, the set holds %+v", dupName(k), got, d)
		}
	}
	return tuples, nil
}

// dupOrigins mixes originators inside the dense range with every kind
// outside it: None, Broadcast, the address just below the subnet and the
// first host past the range.
var dupOrigins = []addr.Node{
	addr.NodeAt(1), addr.NodeAt(2), addr.NodeAt(0), addr.NodeAt(dupSlots - 1),
	addr.None, addr.Broadcast, addr.NodeAt(0) - 1, addr.NodeAt(dupSlots),
}

// Operations on the duplicate set, as FuzzDupSet decodes them.
const (
	dupRef = iota
	dupGet
	dupDelete
	dupOpKinds
)

// dupOp encodes one FuzzDupSet operation: its kind, the originator
// dupOrigins[orig], the sequence number seq and, for a ref, the value
// written into the tuple.
func dupOp(kind, orig int, seq uint16, v byte) []byte {
	return []byte{byte(kind + dupOpKinds*orig), byte(seq - 65530), v}
}

// FuzzDupSet model-checks the duplicate set against a plain map over
// random ref, get and delete sequences. Sequence numbers run from 65530
// across the wrap to 249, so one originator can hold more live tuples
// than its window. Every ref must report creation exactly when the model
// lacks the key and return the model's tuple, every get must agree with
// the model, pointers from ref must stay valid until the next delete, and
// after every operation the set must hold exactly the model's tuples.
// An input is cut after dupFuzzOps operations: that is enough to fill a
// window, spill past it and wrap, and the check after every operation
// makes a run quadratic in its length.
func FuzzDupSet(f *testing.F) {
	var overflow, wrap, outside, recreate [][]byte
	for seq := range uint16(12) {
		overflow = append(overflow, dupOp(dupRef, 1, seq, byte(seq)))
	}
	// Free a window place, then find a spilled tuple again before new
	// ones take the place.
	overflow = append(overflow, dupOp(dupDelete, 1, 3, 0), dupOp(dupRef, 1, 9, 5), dupOp(dupRef, 1, 20, 9),
		dupOp(dupGet, 1, 10, 0), dupOp(dupDelete, 1, 10, 0), dupOp(dupGet, 1, 20, 0))
	wrap = [][]byte{dupOp(dupRef, 0, 65534, 1), dupOp(dupRef, 0, 65535, 2), dupOp(dupRef, 0, 0, 3),
		dupOp(dupGet, 0, 65535, 0), dupOp(dupDelete, 0, 65535, 0), dupOp(dupGet, 0, 0, 0), dupOp(dupRef, 3, 0, 4)}
	for i := 4; i < len(dupOrigins); i++ {
		outside = append(outside, dupOp(dupRef, i, 7, byte(i)), dupOp(dupGet, i, 7, 0), dupOp(dupRef, i, 7, 1))
	}
	outside = append(outside, dupOp(dupDelete, 5, 7, 0), dupOp(dupGet, 5, 7, 0))
	recreate = [][]byte{dupOp(dupRef, 2, 5, 3), dupOp(dupDelete, 2, 5, 0), dupOp(dupGet, 2, 5, 0), dupOp(dupRef, 2, 5, 0)}
	for _, seed := range [][][]byte{overflow, wrap, outside, recreate} {
		f.Add(slices.Concat(seed...))
	}
	f.Fuzz(fuzzDupBody)
}

// dupFuzzOps caps the operations FuzzDupSet decodes from one input.
const dupFuzzOps = 256

func fuzzDupBody(t *testing.T, ops []byte) {
	ops = ops[:min(len(ops), 3*dupFuzzOps)]
	var s dupSet
	model := make(map[dupKey]dupTuple)
	refs := make(map[dupKey]*dupTuple) // pointers from ref since the last delete
	for i := 0; i+2 < len(ops); i += 3 {
		kind, orig := int(ops[i])%dupOpKinds, dupOrigins[int(ops[i])/dupOpKinds%len(dupOrigins)]
		k := newDupKey(orig, 65530+uint16(ops[i+1]))
		want, held := model[k]
		switch kind {
		case dupRef:
			d, created := s.ref(k)
			if created == held {
				t.Fatalf("op %d: ref(%s) created=%v, the model holds it: %v", i/3, dupName(k), created, held)
			}
			if !held {
				want = dupTuple{seq: k.seq()}
			}
			if *d != want {
				t.Fatalf("op %d: ref(%s) = %+v, want %+v", i/3, dupName(k), *d, want)
			}
			v := ops[i+2]
			*d = dupTuple{until: time.Duration(v) + 1, seq: k.seq(), processed: v&1 != 0, retransmitted: v&2 != 0}
			model[k], refs[k] = *d, d
		case dupGet:
			if d := s.get(k); (d != nil) != held || d != nil && *d != want {
				t.Fatalf("op %d: get(%s) = %v, the model holds %+v: %v", i/3, dupName(k), d, want, held)
			}
		case dupDelete:
			s.delete(k)
			delete(model, k)
			clear(refs)
		}
		for rk, d := range refs {
			if *d != model[rk] {
				t.Fatalf("op %d: the pointer from ref(%s) reads %+v, the model holds %+v", i/3, dupName(rk), *d, model[rk])
			}
		}
		got, err := checkDupSet(&s)
		if err != nil {
			t.Fatalf("op %d: %v", i/3, err)
		}
		if !maps.Equal(got, model) {
			t.Fatalf("op %d: the set holds %v, the model %v", i/3, got, model)
		}
	}
}
