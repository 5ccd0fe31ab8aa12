package olsr

import (
	"cmp"
	"slices"

	"repro/internal/addr"
)

// entry is one key and its value in a table.
type entry[V any] struct {
	key addr.Node
	val V
}

// table maps node addresses to values of type V. It is a slice of entries
// kept sorted by key with no key twice, so ranging over it visits entries
// in address order on every run: whatever is derived from a walk (an
// audit record, a HELLO link block, a route) needs no collect-and-sort
// pass first. The zero value is the empty table. Lookups binary-search;
// an insert or delete shifts the entries after it, which costs little at
// the size of a neighborhood.
//
// A pointer returned by get or put stays valid only until the next put or
// delete on the same table, either of which may move the entries.
type table[V any] []entry[V]

// search returns the index of k's entry, or where it would be inserted.
func (t table[V]) search(k addr.Node) (int, bool) {
	return slices.BinarySearchFunc(t, k, func(e entry[V], k addr.Node) int { return cmp.Compare(e.key, k) })
}

// get returns k's value, or nil when k is absent.
func (t table[V]) get(k addr.Node) *V {
	if i, ok := t.search(k); ok {
		return &t[i].val
	}
	return nil
}

// put returns k's value, inserting a zero V first when k is absent.
func (t *table[V]) put(k addr.Node) *V {
	i, ok := t.search(k)
	if !ok {
		// Inserted by append and copy rather than slices.Insert: the
		// table grows the same way, but a race build pays for
		// slices.Insert's growth twice (DESIGN.md §10).
		*t = append(*t, entry[V]{})
		copy((*t)[i+1:], (*t)[i:])
		(*t)[i] = entry[V]{key: k}
	}
	return &(*t)[i].val
}

// carveChunk caps the size, in elements, of the chunks that fresh tables,
// stored HELLO sets and duplicate tuples are carved from. A node's chunks
// start at the size of its first carve and double, so the nodes of a
// small network keep small chunks.
const carveChunk = 128

// carve returns an empty slice with room for k elements, cut from the
// free end of *chunk with a full-slice expression. Its capacity ends
// where the next slice carved from the chunk begins, so a table that
// outgrows its carve reallocates alone, through put's append,
// and never writes into a neighbour's entries. A chunk with less than k
// elements left is replaced by a fresh one; the slices carved from the
// old chunk keep it alive. k <= 0 returns nil.
func carve[T any](chunk *[]T, k int) []T {
	if k <= 0 {
		return nil
	}
	c := *chunk
	if cap(c)-len(c) < k {
		c = make([]T, 0, max(k, min(2*cap(c), carveChunk)))
	}
	l := len(c)
	*chunk = c[:l+k]
	return c[l : l : l+k]
}

// delete removes k's entry, if any.
func (t *table[V]) delete(k addr.Node) {
	if i, ok := t.search(k); ok {
		*t = slices.Delete(*t, i, i+1)
	}
}

// retain keeps the entries keep accepts and drops the rest, in place and
// in address order. keep sees every entry once and may modify its value;
// it must not put to or delete from t.
func (t *table[V]) retain(keep func(k addr.Node, v *V) bool) {
	s := *t
	j := 0
	for i := range s {
		if keep(s[i].key, &s[i].val) {
			s[j] = s[i]
			j++
		}
	}
	clear(s[j:]) // let dropped values' storage go
	*t = s[:j]
}
