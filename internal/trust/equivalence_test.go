package trust

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/addr"
)

// The store-equivalence harness: the dense struct-of-arrays Store must
// be a pure performance substitution for the map-backed layout it
// replaced. A mirrored map store runs the same randomized op campaign —
// sets, gossip seeds, Eq. 5 updates, relaxation steps and sweeps — and
// every observable (Get, FirstHand, Nodes) must match to 1e-12 after
// every step. The op mix draws addresses from the run membership plus
// out-of-membership strays (phantom advertisements, tunnel mouths),
// exercising the index's overflow path.

// mapStore is the reference implementation: the exact map-backed layout
// the dense Store replaced.
type mapStore struct {
	params Params
	values map[addr.Node]float64
	seeded addr.Set
}

func newMapStore(p Params) *mapStore {
	return &mapStore{params: p, values: make(map[addr.Node]float64)}
}

func (s *mapStore) Get(n addr.Node) float64 {
	if v, ok := s.values[n]; ok {
		return v
	}
	return s.params.Default
}

func (s *mapStore) Set(n addr.Node, v float64) {
	s.values[n] = s.params.clamp(v)
	s.seeded.Remove(n)
}

func (s *mapStore) SetSeeded(n addr.Node, v float64) {
	s.values[n] = s.params.clamp(v)
	s.seeded.Add(n)
}

func (s *mapStore) FirstHand(n addr.Node) bool {
	_, ok := s.values[n]
	return ok && !s.seeded.Has(n)
}

func (s *mapStore) Update(n addr.Node, evidence []Evidence) float64 {
	sum := 0.0
	for _, ev := range evidence {
		w := ev.Weight
		if w <= 0 {
			if ev.Value >= 0 {
				w = s.params.AlphaPos
			} else {
				w = s.params.AlphaNeg
			}
			w *= ev.Gravity.factor()
		}
		sum += w * ev.Value
	}
	v := s.params.clamp(sum + s.params.Beta*s.Get(n))
	s.values[n] = v
	s.seeded.Remove(n)
	return v
}

func (s *mapStore) Relax(n addr.Node) float64 {
	p := s.params
	beta := p.RelaxBeta
	if beta <= 0 {
		beta = p.Beta
	}
	v := p.clamp(beta*s.Get(n) + (1-beta)*p.Default)
	s.values[n] = v
	return v
}

// storeMirror drives both layouts through the same ops.
type storeMirror struct {
	t     *testing.T
	dense *Store
	ref   *mapStore
	pop   []addr.Node // address population ops draw from
}

const storeEps = 1e-12

func newStoreMirror(t *testing.T, p Params, members, strays int) *storeMirror {
	t.Helper()
	m := &storeMirror{t: t, dense: NewStore(p), ref: newMapStore(p)}
	for i := 1; i <= members; i++ {
		m.pop = append(m.pop, addr.NodeAt(i))
	}
	// Out-of-membership addresses a run can meet at runtime: the
	// phantom offset and wormhole tunnel mouths land far outside the
	// contiguous prefix.
	for i := 0; i < strays; i++ {
		m.pop = append(m.pop, addr.NodeAt(members+83+817*i))
	}
	return m
}

// check compares every observable for the whole population.
func (m *storeMirror) check() {
	m.t.Helper()
	for _, n := range m.pop {
		if m.dense.FirstHand(n) != m.ref.FirstHand(n) {
			m.t.Fatalf("FirstHand(%v): dense %v, map %v", n, m.dense.FirstHand(n), m.ref.FirstHand(n))
		}
		if d, r := m.dense.Get(n), m.ref.Get(n); math.Abs(d-r) > storeEps {
			m.t.Fatalf("Get(%v): dense %v, map %v", n, d, r)
		}
	}
	nodes := m.dense.Nodes()
	if len(nodes) != len(m.ref.values) {
		m.t.Fatalf("Nodes: dense %d entries, map %d", len(nodes), len(m.ref.values))
	}
	for i := 1; i < len(nodes); i++ {
		if nodes[i-1] >= nodes[i] {
			m.t.Fatalf("Nodes not strictly ascending at %d: %v", i, nodes)
		}
	}
	for _, n := range nodes {
		if _, ok := m.ref.values[n]; !ok {
			m.t.Fatalf("Nodes lists %v which the map store does not know", n)
		}
	}
}

// TestStoreEquivalence drives 1000+ randomized op sequences through
// both layouts.
func TestStoreEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed)) //nolint:gosec // property test
		p := DefaultParams()
		if seed%3 == 0 {
			p.RelaxBeta = 0 // exercise the Beta fallback
		}
		m := newStoreMirror(t, p, 2+rng.Intn(40), rng.Intn(4))
		ops := 1000 + rng.Intn(500)
		for i := 0; i < ops; i++ {
			n := m.pop[rng.Intn(len(m.pop))]
			switch rng.Intn(7) {
			case 0:
				v := rng.Float64()*1.4 - 0.2 // overshoots exercise clamping
				m.dense.Set(n, v)
				m.ref.Set(n, v)
			case 1:
				v := rng.Float64()
				m.dense.SetSeeded(n, v)
				m.ref.SetSeeded(n, v)
			case 2, 3:
				evs := make([]Evidence, rng.Intn(4))
				for j := range evs {
					evs[j] = Evidence{
						Value:   rng.Float64()*2 - 1,
						Gravity: Gravity(rng.Intn(4)),
					}
					if rng.Intn(3) == 0 {
						evs[j].Weight = rng.Float64() * 0.3
					}
				}
				dv := m.dense.Update(n, evs)
				rv := m.ref.Update(n, evs)
				if math.Abs(dv-rv) > storeEps {
					t.Fatalf("Update(%v): dense %v, map %v", n, dv, rv)
				}
			case 4:
				dv := m.dense.Relax(n)
				rv := m.ref.Relax(n)
				if math.Abs(dv-rv) > storeEps {
					t.Fatalf("Relax(%v): dense %v, map %v", n, dv, rv)
				}
			case 5:
				// A relaxation sweep over every known node.
				for _, k := range m.dense.Nodes() {
					m.dense.Relax(k)
					m.ref.Relax(k)
				}
			case 6:
				m.check() // mid-sequence
			}
		}
		m.check()
	}
}

// TestStoreSharedIndex pins that stores sharing one run index keep
// independent values while agreeing on the slot space.
func TestStoreSharedIndex(t *testing.T) {
	ix := addr.NewIndex(4)
	a := NewStoreIndexed(DefaultParams(), ix)
	b := NewStoreIndexed(DefaultParams(), ix)
	a.Set(addr.NodeAt(1), 0.9)
	b.Set(addr.NodeAt(2), 0.1)
	if a.FirstHand(addr.NodeAt(2)) || b.FirstHand(addr.NodeAt(1)) {
		t.Fatal("stores sharing an index leaked values")
	}
	if got := a.Get(addr.NodeAt(1)); got != 0.9 {
		t.Fatalf("a.Get = %v", got)
	}
	if got := b.Get(addr.NodeAt(2)); got != 0.1 {
		t.Fatalf("b.Get = %v", got)
	}
	if ix.Len() != 2 {
		t.Fatalf("index len = %d, want 2", ix.Len())
	}
}
