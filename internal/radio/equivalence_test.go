package radio

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/geo"
	"repro/internal/sim"
)

// The equivalence harness. Config.Grid only sets the medium's cell side:
// unset, one cell holds every station and nothing is pruned; set, cells
// are MaxRange + MaxSpeed·reindexInterval wide and a broadcast visits
// only the 3×3 block around its sender. Two mirrored mediums, one per
// cell mode, run the same campaign — placements, mobility steps, power
// cycling, re-attachment, broadcasts, unicasts — on identically seeded
// schedulers, and every observable (neighbor lists, delivery order,
// counters) must match element for element. Because delivery loss draws
// from the scheduler RNG per in-range candidate, any divergence in the
// candidate visit order desynchronizes the streams and shows up
// immediately.
//
// Both mirrors run the same medium code, so agreement alone cannot catch
// a fault they share. Every neighbor list and every broadcast is also
// checked against an oracle that shares none of it: the in-range list
// computed here, by brute force, from positions in attachment order.

// rx is one delivered frame as the receiver's handler saw it.
type rx struct{ to, from, size int }

// mirror is a one-cell medium and a grid medium over the same stations.
// Stations are numbered from 1 in attachment order.
type mirror struct {
	t        *testing.T
	prop     Propagation
	maxSpeed float64
	sched    [2]*sim.Scheduler // [0] one cell, [1] grid
	medium   [2]*Medium
	log      [2][]rx

	pos   []geo.Point     // shared positions, indexed by station
	down  []bool          // power state, indexed by station
	moved []time.Duration // when each station last moved or attached
	// sampled is the last instant either medium may have read any
	// station's position; see move.
	sampled time.Duration
}

// newMirror builds two empty mediums on identically seeded schedulers.
// maxSpeed must bound every move (see move).
func newMirror(t *testing.T, seed int64, prop Propagation, maxSpeed float64) *mirror {
	t.Helper()
	m := &mirror{
		t: t, prop: prop, maxSpeed: maxSpeed,
		pos: make([]geo.Point, 1), down: make([]bool, 1), moved: make([]time.Duration, 1),
	}
	for k, grid := range []bool{false, true} {
		m.sched[k] = sim.New(seed)
		m.medium[k] = NewMedium(m.sched[k], Config{
			Prop:      prop,
			PropDelay: time.Millisecond,
			Grid:      grid,
			MaxSpeed:  maxSpeed,
		})
	}
	return m
}

// n is the number of stations attached so far.
func (m *mirror) n() int { return len(m.pos) - 1 }

// now is the mirrors' shared virtual time.
func (m *mirror) now() time.Duration { return m.sched[0].Now() }

// attach attaches station i at p on both mediums: station n()+1 is new,
// any lower index is re-attached in place, which may teleport it and
// clears its down mark.
func (m *mirror) attach(i int, p geo.Point) {
	if i == m.n()+1 {
		m.pos = append(m.pos, p)
		m.down = append(m.down, false)
		m.moved = append(m.moved, 0)
	}
	m.pos[i], m.down[i], m.moved[i] = p, false, m.now()
	m.sampled = m.now()
	for k := range m.medium {
		m.medium[k].Attach(addr.NodeAt(i), func() geo.Point { return m.pos[i] }, func(f Frame) {
			m.log[k] = append(m.log[k], rx{to: i, from: f.From.Index(), size: len(f.Payload)})
		})
	}
}

// setDown powers station i off or on on both mediums.
func (m *mirror) setDown(i int, down bool) {
	m.down[i] = down
	for _, md := range m.medium {
		md.SetDown(addr.NodeAt(i), down)
	}
}

// reach is how far station i may move now without breaking the grid's
// contract that MaxSpeed bounds every station's speed. Positions are
// step functions here, so the bound holds between any two instants the
// mediums may have read them: the move must fit in the time since the
// station last moved and since the last read.
func (m *mirror) reach(i int) float64 {
	return m.maxSpeed * (m.now() - max(m.moved[i], m.sampled)).Seconds()
}

// move places station i at p, which must lie within reach(i) of its
// current position.
func (m *mirror) move(i int, p geo.Point) {
	m.t.Helper()
	if d := m.pos[i].Dist(p); d > m.reach(i) {
		m.t.Fatalf("harness bug: station %d moves %.3f m, reach %.3f m", i, d, m.reach(i))
	}
	m.pos[i], m.moved[i] = p, m.now()
}

// advance moves both virtual clocks forward together.
func (m *mirror) advance(d time.Duration) {
	for _, s := range m.sched {
		s.RunUntil(s.Now() + d)
	}
}

// oracle is the brute-force in-range list of station i: every other
// powered station the propagation model reaches, in attachment order.
func (m *mirror) oracle(i int) []addr.Node {
	if m.down[i] {
		return nil
	}
	var out []addr.Node
	for j := 1; j <= m.n(); j++ {
		if j != i && !m.down[j] && m.prop.DeliveryProb(m.pos[i].Dist(m.pos[j])) > 0 {
			out = append(out, addr.NodeAt(j))
		}
	}
	return out
}

// checkNeighbors compares both mediums' NeighborsInto answer for station
// i with the oracle.
func (m *mirror) checkNeighbors(i int) {
	m.t.Helper()
	m.sampled = m.now()
	want := m.oracle(i)
	for k, md := range m.medium {
		if got := md.NeighborsInto(addr.NodeAt(i), nil); !slices.Equal(got, want) {
			m.t.Fatalf("t=%s: NeighborsInto(%d) with Grid=%v: got %v, oracle %v", m.now(), i, k == 1, got, want)
		}
	}
}

// send transmits one frame from station i to to (a station or
// addr.Broadcast) on both mediums and drains delivery. The two delivery
// logs and counters must match, and every delivery must be one the
// oracle allows: a broadcast reaches a subsequence of the sender's
// in-range list (all of it when the model is lossless), and charges
// every other powered station a lost frame.
func (m *mirror) send(i int, to addr.Node, size int) {
	m.t.Helper()
	m.sampled = m.now()
	want := m.oracle(i)
	before, seen := m.medium[0].Stats(), len(m.log[0])
	for _, md := range m.medium {
		md.Send(addr.NodeAt(i), to, make([]byte, size))
	}
	m.advance(2 * time.Millisecond) // past PropDelay
	if !slices.Equal(m.log[0], m.log[1]) {
		m.t.Fatalf("t=%s: send %d->%v: deliveries diverged:\none cell %v\ngrid     %v",
			m.now(), i, to, m.log[0][seen:], m.log[1][min(seen, len(m.log[1])):])
	}
	after := m.medium[0].Stats()
	if after != m.medium[1].Stats() {
		m.t.Fatalf("t=%s: counters diverged:\none cell %+v\ngrid     %+v", m.now(), after, m.medium[1].Stats())
	}
	var got []addr.Node
	for _, d := range m.log[0][seen:] {
		if d.from != i || d.size != size {
			m.t.Fatalf("t=%s: send %d->%v delivered %+v", m.now(), i, to, d)
		}
		got = append(got, addr.NodeAt(d.to))
	}
	if m.down[i] {
		if after != before || len(got) > 0 {
			m.t.Fatalf("t=%s: down station %d transmitted: %+v, deliveries %v", m.now(), i, after, got)
		}
		return
	}
	if to != addr.Broadcast {
		j := to.Index()
		if len(got) > 0 && (got[0] != to || m.down[j] || m.prop.DeliveryProb(m.pos[i].Dist(m.pos[j])) <= 0) {
			m.t.Fatalf("t=%s: unicast %d->%d delivered %v, out of range or down", m.now(), i, j, got)
		}
		return
	}
	if !isSubsequence(got, want) {
		m.t.Fatalf("t=%s: broadcast from %d reached %v, oracle in-range list %v", m.now(), i, got, want)
	}
	if _, lossless := m.prop.(UnitDisk); lossless && len(got) != len(want) {
		m.t.Fatalf("t=%s: lossless broadcast from %d reached %v, oracle %v", m.now(), i, got, want)
	}
	up := 0
	for j := 1; j <= m.n(); j++ {
		if j != i && !m.down[j] {
			up++
		}
	}
	charged := (after.FramesDelivered - before.FramesDelivered) + (after.FramesLost - before.FramesLost)
	if charged != uint64(up) { //nolint:gosec // up counts stations
		m.t.Fatalf("t=%s: broadcast from %d charged %d frames for %d powered stations", m.now(), i, charged, up)
	}
}

// isSubsequence reports whether sub appears in seq in order.
func isSubsequence(sub, seq []addr.Node) bool {
	k := 0
	for _, x := range seq {
		if k < len(sub) && sub[k] == x {
			k++
		}
	}
	return k == len(sub)
}

// equivalenceProps is the propagation matrix the campaigns sweep.
func equivalenceProps() []Propagation {
	return []Propagation{
		UnitDisk{Range: 250},
		UnitDisk{Range: 80},
		LossyDisk{Range: 200, FadeRange: 320, Loss: 0.3},
		LossyDisk{Range: 150, Loss: 0.15}, // no fade zone
	}
}

// TestGridScanEquivalence is the headline property test: randomized
// placements, mobility steps, power cycling and re-attachment across
// every propagation model, with 1000+ broadcast/neighbor comparisons.
func TestGridScanEquivalence(t *testing.T) {
	const (
		runsPerConfig = 4
		stepsPerRun   = 25
	)
	cases := 0
	for pi, prop := range equivalenceProps() {
		for _, maxSpeed := range []float64{0, 5, 40} {
			for run := 0; run < runsPerConfig; run++ {
				seed := int64(1000*pi + 100*int(maxSpeed) + run + 1)
				rng := rand.New(rand.NewSource(seed)) //nolint:gosec // test
				n := 10 + rng.Intn(90)
				arena := geo.Arena(800+rng.Float64()*800, 800+rng.Float64()*800)
				m := newMirror(t, seed, prop, maxSpeed)
				for i := 1; i <= n; i++ {
					m.attach(i, arena.RandPoint(rng))
				}
				for step := 0; step < stepsPerRun; step++ {
					// Advance time and move stations within the speed bound.
					m.advance(time.Duration(rng.Intn(900)+100) * time.Millisecond)
					if maxSpeed > 0 {
						for i := 1; i <= n; i++ {
							if rng.Intn(3) == 0 {
								continue // some stations idle this step
							}
							step := geo.Heading(rng.Float64() * 2 * math.Pi).Scale(rng.Float64() * m.reach(i))
							m.move(i, arena.Clamp(m.pos[i].Add(step)))
						}
					}
					// Churn: power cycling and occasional re-attachment.
					if rng.Intn(4) == 0 {
						m.setDown(1+rng.Intn(n), rng.Intn(2) == 0)
					}
					if rng.Intn(10) == 0 {
						m.attach(1+rng.Intn(n), arena.RandPoint(rng)) // teleport is fine at attach time
					}
					m.checkNeighbors(1 + rng.Intn(n))
					m.send(1+rng.Intn(n), addr.Broadcast, 1+rng.Intn(64))
					cases += 2
				}
			}
		}
	}
	if cases < 1000 {
		t.Fatalf("only %d randomized cases — the acceptance floor is 1000", cases)
	}
}

// TestGridScanEquivalenceBoundaries pins the exact-boundary cases the
// random campaign may miss: stations precisely at propagation range and
// precisely on grid cell corners, including negative coordinates.
func TestGridScanEquivalenceBoundaries(t *testing.T) {
	m := newMirror(t, 7, UnitDisk{Range: 100}, 0) // grid cell side = 100 exactly
	for i, p := range []geo.Point{
		geo.Pt(0, 0),       // cell corner
		geo.Pt(100, 0),     // exactly at range from 1, on a cell boundary
		geo.Pt(200, 0),     // exactly at range from 2, out of range of 1
		geo.Pt(-100, 0),    // negative coordinates, exactly at range from 1
		geo.Pt(100, 100),   // cell corner, sqrt(2)·100 from 1 (out of range)
		geo.Pt(99.999, 0),  // just inside
		geo.Pt(100.001, 0), // just outside
	} {
		m.attach(i+1, p)
	}
	for i := 1; i <= m.n(); i++ {
		m.checkNeighbors(i)
	}
	// A station exactly at range must receive the broadcast (d <= Range).
	m.send(1, addr.Broadcast, 1)
	if got := m.medium[0].Stats().FramesDelivered; got != 3 { // nodes at ±100 and 99.999
		t.Fatalf("FramesDelivered = %d, want 3 (range boundary is inclusive)", got)
	}
}

// FuzzMedium runs a decoded op sequence on both cell modes and checks
// every answer against the brute-force oracle. Byte 0 picks the
// propagation model and speed bound, byte 1 the arena side; then each
// 4-byte group is one op — attach, move within MaxSpeed, set down,
// re-attach, broadcast, unicast, advance, or a neighbor query — on the
// station its second byte names. Finally every station's neighbors are
// checked.
func FuzzMedium(f *testing.F) {
	seed := []byte{0x21, 60}
	for i := byte(0); i < 12; i++ {
		seed = append(seed, 0, 0, i*21, i*37) // attach 12 stations
	}
	for i := byte(0); i < 8; i++ {
		seed = append(seed,
			6, 0, 90, 0, // advance 910ms
			1, i, 255, i*31, // move
			4, i, 20, 0, // broadcast
			5, i+3, i, 9, // unicast
			2, i*5, i, 0, // power cycle
			7, i*7, 0, 0) // neighbor query
	}
	f.Add(seed)
	f.Add([]byte{0x12, 255, 0, 0, 0, 0, 0, 0, 255, 255, 0, 0, 128, 128, 4, 0, 1, 0, 3, 1, 128, 130, 4, 2, 1, 0})
	f.Add([]byte{0x03, 0, 0, 0, 10, 10, 8, 0, 12, 10, 6, 0, 255, 0, 1, 1, 255, 64, 4, 1, 0, 0, 7, 0, 0, 0})

	const maxStations = 48
	speeds := []float64{0, 5, 40}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		props := equivalenceProps()
		prop := props[int(data[0])%len(props)]
		maxSpeed := speeds[int(data[0]>>4)%len(speeds)]
		arena := geo.Arena(200+8*float64(data[1]), 200+8*float64(data[1]))
		at := func(x, y byte) geo.Point {
			return geo.Pt(float64(x)/255*arena.Max.X, float64(y)/255*arena.Max.Y)
		}
		m := newMirror(t, int64(data[0])<<8|int64(data[1]), prop, maxSpeed)
		ops := data[2:]
		for k := 0; k+4 <= len(ops) && k < 4*256; k += 4 {
			op, a, b, c := ops[k]%8, ops[k+1], ops[k+2], ops[k+3]
			n := m.n()
			if op == 0 || n == 0 {
				if n < maxStations {
					m.attach(n+1, at(b, c))
				}
				continue
			}
			i := 1 + int(a)%n
			switch op {
			case 1:
				step := geo.Heading(float64(c) / 256 * 2 * math.Pi).Scale(float64(b) / 256 * m.reach(i))
				m.move(i, arena.Clamp(m.pos[i].Add(step)))
			case 2:
				m.setDown(i, b%2 == 0)
			case 3:
				m.attach(i, at(b, c))
			case 4:
				m.send(i, addr.Broadcast, 1+int(b))
			case 5:
				m.send(i, addr.NodeAt(1+int(b)%n), 1+int(c))
			case 6:
				m.advance(time.Duration(1+int(b)) * 10 * time.Millisecond)
			case 7:
				m.checkNeighbors(i)
			}
		}
		for i := 1; i <= m.n(); i++ {
			m.checkNeighbors(i)
		}
	})
}
