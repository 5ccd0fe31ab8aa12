package addr

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNodeString(t *testing.T) {
	tests := []struct {
		name string
		node Node
		want string
	}{
		{"first", NodeAt(1), "10.0.0.1"},
		{"wraps octet", NodeAt(300), "10.0.1.44"},
		{"broadcast", Broadcast, "*"},
		{"zero", None, "0.0.0.0"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.node.String(); got != tt.want {
				t.Errorf("String() = %q, want %q", got, tt.want)
			}
		})
	}
}

// TestAppendTextMatchesArithmetic holds the interned fast path of
// AppendText to the dotted quad computed from the octets, on every
// interned host, the first host past them, None, Broadcast and random
// addresses, and to String on each.
func TestAppendTextMatchesArithmetic(t *testing.T) {
	quad := func(n Node) string {
		if n == Broadcast {
			return "*"
		}
		return fmt.Sprintf("%d.%d.%d.%d", n>>24, n>>16&0xff, n>>8&0xff, n&0xff)
	}
	check := func(n Node) {
		t.Helper()
		want := quad(n)
		if got := string(n.AppendText([]byte("x="))); got != "x="+want {
			t.Fatalf("AppendText(%#x) = %q, want %q", uint32(n), got, "x="+want)
		}
		if got := n.String(); got != want {
			t.Fatalf("String(%#x) = %q, want %q", uint32(n), got, want)
		}
	}
	for i := 0; i < internedHosts; i++ {
		check(NodeAt(i))
	}
	if n := NodeAt(internedHosts); n.String() != "10.0.4.0" {
		t.Fatalf("first host past the interned ones is %v, want 10.0.4.0", n)
	}
	for _, n := range []Node{NodeAt(internedHosts), None, Broadcast, Broadcast - 1, 0x0a000000 - 1} {
		check(n)
	}
	rng := rand.New(rand.NewSource(7)) //nolint:gosec // test determinism
	for i := 0; i < 100_000; i++ {
		check(Node(rng.Uint32()))
	}
}

func TestNodeIndexRoundTrip(t *testing.T) {
	for _, i := range []int{1, 2, 16, 255, 1000} {
		if got := NodeAt(i).Index(); got != i {
			t.Errorf("NodeAt(%d).Index() = %d", i, got)
		}
	}
}

func TestParse(t *testing.T) {
	tests := []struct {
		in      string
		want    Node
		wantErr bool
	}{
		{"10.0.0.1", NodeAt(1), false},
		{"*", Broadcast, false},
		{"0.0.0.0", None, false},
		{"10.0.0", None, true},
		{"10.0.0.256", None, true},
		{"10.0.0.x", None, true},
		{"", None, true},
	}
	for _, tt := range tests {
		got, err := Parse(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("Parse(%q) error = %v, wantErr %v", tt.in, err, tt.wantErr)
			continue
		}
		if err == nil && got != tt.want {
			t.Errorf("Parse(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestParseStringRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		n := Node(v)
		if n == Broadcast {
			return true
		}
		back, err := Parse(n.String())
		return err == nil && back == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSetBasics(t *testing.T) {
	s := NewSet(NodeAt(1), NodeAt(2))
	if !s.Has(NodeAt(1)) || !s.Has(NodeAt(2)) || s.Has(NodeAt(3)) {
		t.Fatalf("membership wrong: %v", s)
	}
	s.Add(NodeAt(3))
	if !s.Has(NodeAt(3)) {
		t.Fatal("Add failed")
	}
	s.Remove(NodeAt(1))
	if s.Has(NodeAt(1)) {
		t.Fatal("Remove failed")
	}
	if len(s) != 2 {
		t.Fatalf("len = %d, want 2", len(s))
	}
}

func TestSetCloneIndependence(t *testing.T) {
	s := NewSet(NodeAt(1))
	c := s.Clone()
	c.Add(NodeAt(2))
	if s.Has(NodeAt(2)) {
		t.Fatal("Clone is not independent")
	}
}

func TestSetAlgebra(t *testing.T) {
	a := NewSet(NodeAt(1), NodeAt(2), NodeAt(3))
	b := NewSet(NodeAt(2), NodeAt(3), NodeAt(4))

	if got := a.Diff(b); !got.Equal(NewSet(NodeAt(1))) {
		t.Errorf("Diff = %v", got)
	}
	if got := b.Diff(a); !got.Equal(NewSet(NodeAt(4))) {
		t.Errorf("Diff = %v", got)
	}
	if got := a.Diff(nil); !got.Equal(a) {
		t.Errorf("Diff(empty) = %v", got)
	}
	if got := a.Diff(a); len(got) != 0 {
		t.Errorf("Diff(self) = %v", got)
	}
}

func TestSetEqual(t *testing.T) {
	a := NewSet(NodeAt(1), NodeAt(2))
	if !a.Equal(NewSet(NodeAt(2), NodeAt(1))) {
		t.Error("Equal should ignore order")
	}
	if a.Equal(NewSet(NodeAt(1))) {
		t.Error("Equal must compare sizes")
	}
	if a.Equal(NewSet(NodeAt(1), NodeAt(3))) {
		t.Error("Equal must compare members")
	}
	if !NewSet().Equal(nil) {
		t.Error("the empty set must equal the zero Set")
	}
}

func TestSetSortedAndString(t *testing.T) {
	s := NewSet(NodeAt(3), NodeAt(1), NodeAt(2), NodeAt(3))
	want := []Node{NodeAt(1), NodeAt(2), NodeAt(3)}
	if !slices.Equal(s, want) {
		t.Fatalf("NewSet = %v, want %v", []Node(s), want)
	}
	if str := s.String(); str != "[10.0.0.1,10.0.0.2,10.0.0.3]" {
		t.Errorf("String() = %q", str)
	}
	if NewSet() == nil {
		t.Error("NewSet() must not be nil: a nil set means \"no set\" to some callers")
	}
}

// TestSetAlgebraProperties checks the sorted-slice set against a map
// model: after any sequence of Adds and Removes the members ascend
// strictly, membership matches the model, and Diff is the model's
// difference.
func TestSetAlgebraProperties(t *testing.T) {
	f := func(ops []uint8, other uint16) bool {
		var s Set
		model := map[Node]bool{}
		for _, op := range ops {
			n := NodeAt(int(op % 16))
			if op&0x80 != 0 {
				s.Remove(n)
				delete(model, n)
			} else {
				s.Add(n)
				model[n] = true
			}
		}
		if len(s) != len(model) || !slices.IsSorted(s) || len(slices.Compact(slices.Clone(s))) != len(s) {
			return false
		}
		var o Set
		for i := 0; i < 16; i++ {
			if other&(1<<i) != 0 {
				o = append(o, NodeAt(i))
			}
		}
		var want Set
		for i := 0; i < 16; i++ {
			n := NodeAt(i)
			if s.Has(n) != model[n] {
				return false
			}
			if model[n] && !o.Has(n) {
				want = append(want, n)
			}
		}
		return s.Diff(o).Equal(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
