// Package addr defines node identifiers shared by every layer of the
// simulated MANET stack.
//
// A Node is the OLSR "main address" of a device. The simulator renders it as
// an IPv4-style dotted quad in the 10.0.0.0/16 range, matching the addressing
// used by the paper's testbed logs.
package addr

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Node identifies a device by its OLSR main address.
type Node uint32

// Broadcast is the link-local broadcast destination. It is never a valid
// node main address.
const Broadcast Node = 0xffffffff

// None is the zero Node; it is never assigned to a device.
const None Node = 0

// NodeAt returns the i-th node address (1-based host part) in the simulated
// 10.0.0.0/16 subnet. NodeAt(1) == 10.0.0.1.
func NodeAt(i int) Node {
	return Node(0x0a000000 + uint32(i)) //nolint:gosec // simulated subnet, small i
}

// Index returns the 1-based host index for an address produced by NodeAt.
func (n Node) Index() int {
	return int(uint32(n) - 0x0a000000)
}

// internedHosts is the number of NodeAt addresses whose String rendering
// is precomputed: String returns the shared string and AppendText copies
// it, so rendering one of these nodes costs no arithmetic and no
// allocation. Filled once at init, hence race-free.
const internedHosts = 1024

var internedNames [internedHosts]string

func init() {
	for i := range internedNames {
		n := Node(0x0a000000 + uint32(i)) //nolint:gosec // small constant range
		internedNames[i] = string(n.appendQuad(make([]byte, 0, 15)))
	}
}

// String renders the address as a dotted quad, or "*" for Broadcast.
func (n Node) String() string {
	if i := uint32(n) - 0x0a000000; i < internedHosts {
		return internedNames[i]
	}
	return string(n.appendQuad(make([]byte, 0, 15)))
}

// AppendText appends the String rendering to b without intermediate
// allocations — the audit log renders every address it logs through
// here, which makes this a hot path at scale.
//
//repro:allocfree
func (n Node) AppendText(b []byte) []byte {
	if i := uint32(n) - 0x0a000000; i < internedHosts {
		return append(b, internedNames[i]...)
	}
	return n.appendQuad(b)
}

// appendQuad appends the String rendering computed in arithmetic. It
// fills internedNames, so it must never read them.
func (n Node) appendQuad(b []byte) []byte {
	if n == Broadcast {
		return append(b, '*')
	}
	v := uint32(n)
	b = strconv.AppendUint(b, uint64(v>>24), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(v>>16&0xff), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(v>>8&0xff), 10)
	b = append(b, '.')
	return strconv.AppendUint(b, uint64(v&0xff), 10)
}

// Parse converts a dotted-quad string (or "*") back into a Node. It
// scans the string directly — log replay parses two addresses per
// record, so the split-allocate-convert route is too hot.
func Parse(s string) (Node, error) {
	if s == "*" {
		return Broadcast, nil
	}
	var v uint32
	rest := s
	for i := 0; i < 4; i++ {
		p := rest
		if i < 3 {
			dot := strings.IndexByte(rest, '.')
			if dot < 0 {
				return None, fmt.Errorf("addr: %q is not a dotted quad", s)
			}
			p, rest = rest[:dot], rest[dot+1:]
		} else if strings.IndexByte(rest, '.') >= 0 {
			return None, fmt.Errorf("addr: %q is not a dotted quad", s)
		}
		o, err := strconv.Atoi(p)
		if err != nil || o < 0 || o > 255 {
			return None, fmt.Errorf("addr: bad octet %q in %q", p, s)
		}
		v = v<<8 | uint32(o) //nolint:gosec // bounded 0..255
	}
	return Node(v), nil
}

// Set is a collection of nodes kept sorted in ascending address order
// with no duplicates, so ranging over a set visits members in the same
// order on every run. The zero value is the empty set. A Set is a slice
// value: Add and Remove update the variable they are called on, and any
// other copy, which may share its storage, is stale afterwards. Hand a
// set over complete, or Clone it.
type Set []Node

// NewSet builds a Set from the given nodes, in any order and with
// duplicates allowed. The result is never nil.
func NewSet(nodes ...Node) Set {
	s := append(make(Set, 0, len(nodes)), nodes...)
	slices.Sort(s)
	return slices.Compact(s)
}

// Add inserts n into the set.
func (s *Set) Add(n Node) {
	if i, found := slices.BinarySearch(*s, n); !found {
		*s = slices.Insert(*s, i, n)
	}
}

// Remove deletes n from the set.
func (s *Set) Remove(n Node) {
	if i, found := slices.BinarySearch(*s, n); found {
		*s = slices.Delete(*s, i, i+1)
	}
}

// Has reports whether n is in the set.
func (s Set) Has(n Node) bool {
	_, found := slices.BinarySearch(s, n)
	return found
}

// Clone returns an independent copy of the set (nil stays nil).
func (s Set) Clone() Set { return slices.Clone(s) }

// Equal reports whether both sets contain exactly the same nodes.
func (s Set) Equal(o Set) bool { return slices.Equal(s, o) }

// Diff returns the members of s that are not in o, merging the two
// sorted sets in one pass.
func (s Set) Diff(o Set) Set {
	var r Set
	j := 0
	for _, n := range s {
		for j < len(o) && o[j] < n {
			j++
		}
		if j == len(o) || o[j] != n {
			r = append(r, n)
		}
	}
	return r
}

// String renders the set as a bracketed, sorted, comma-separated list.
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, n := range s {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n.String())
	}
	b.WriteByte(']')
	return b.String()
}
