// Package radio simulates the wireless medium: frame broadcast and unicast
// between stations with configurable propagation, loss and delay.
//
// The medium is intentionally simple — the trust and detection layers above
// depend only on which control messages arrive, when, and how often they are
// lost, all of which this model reproduces. See DESIGN.md §2 for the
// substitution rationale versus a full 802.11 PHY/MAC.
//
// One implementation backs broadcast delivery and the Neighbors query: a
// uniform spatial grid that visits only the 3×3 cell neighborhood of the
// transmitter. Config.Grid only picks the cell side. With it set, cells
// are MaxRange + MaxSpeed·reindexInterval wide and distant stations are
// never examined; without it, one cell holds every station and nothing is
// pruned. Candidate sets are sorted into attachment order and the loss RNG
// is consulted for exactly the same stations in the same order, so a
// seeded run is byte-identical under either cell side (DESIGN.md §2.4).
package radio

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/addr"
	"repro/internal/geo"
	"repro/internal/sim"
)

// Frame is one link-layer transmission.
type Frame struct {
	From addr.Node
	To   addr.Node // addr.Broadcast for one-hop broadcast
	// Payload is the medium's copy of the sent bytes, valid only during
	// the handler call: the medium reuses it for a later frame. A handler
	// that keeps the bytes (a relay, a sniffer) clones them.
	Payload []byte
	Sent    time.Duration // virtual time the transmission started
}

// Propagation decides link quality from transmitter→receiver distance.
type Propagation interface {
	// DeliveryProb returns the probability that a frame sent over distance
	// d meters is received. 0 means out of range.
	DeliveryProb(d float64) float64
	// MaxRange returns the distance beyond which DeliveryProb is always 0.
	// The spatial grid derives its cell side from it; a model must never
	// deliver past its MaxRange or Grid runs diverge from one-cell runs.
	MaxRange() float64
}

// UnitDisk is the classic fixed-radius model: delivery succeeds with
// probability 1 inside Range, 0 outside.
type UnitDisk struct {
	Range float64
}

var _ Propagation = UnitDisk{}

// DeliveryProb implements Propagation.
func (u UnitDisk) DeliveryProb(d float64) float64 {
	if d <= u.Range {
		return 1
	}
	return 0
}

// MaxRange implements Propagation.
func (u UnitDisk) MaxRange() float64 { return u.Range }

// LossyDisk delivers with probability 1-Loss inside Range, degrading
// linearly to zero between Range and FadeRange (gray zone). It approximates
// log-distance path loss with shadowing without modeling dBm budgets.
type LossyDisk struct {
	Range     float64 // reliable range (delivery prob = 1-Loss)
	FadeRange float64 // beyond Range, probability decays linearly to 0 here
	Loss      float64 // base loss probability inside Range, in [0,1)
}

var _ Propagation = LossyDisk{}

// DeliveryProb implements Propagation.
func (l LossyDisk) DeliveryProb(d float64) float64 {
	base := 1 - l.Loss
	switch {
	case d <= l.Range:
		return base
	case l.FadeRange > l.Range && d < l.FadeRange:
		return base * (l.FadeRange - d) / (l.FadeRange - l.Range)
	default:
		return 0
	}
}

// MaxRange implements Propagation.
func (l LossyDisk) MaxRange() float64 {
	if l.FadeRange > l.Range {
		return l.FadeRange
	}
	return l.Range
}

// Handler receives frames addressed to (or broadcast near) a station.
type Handler func(f Frame)

type station struct {
	id      addr.Node
	pos     func() geo.Point
	handler Handler
	down    bool

	ord  int      // attachment order — the deterministic iteration rank
	cell geo.Cell // current grid bucket
}

// Stats counts medium activity for the overhead experiments.
type Stats struct {
	FramesSent      uint64
	FramesDelivered uint64
	FramesLost      uint64 // lost to propagation/loss model
	BytesSent       uint64
	BytesDelivered  uint64
}

// Config parameterizes the medium.
type Config struct {
	Prop      Propagation
	PropDelay time.Duration // fixed propagation+processing delay per hop

	// Grid sets the spatial index's cell side: square cells of side
	// MaxRange + MaxSpeed·reindexInterval, so a broadcast only examines
	// the 3×3 neighborhood of the transmitter. Results are identical to
	// the one-cell index as long as MaxSpeed truly bounds every station's
	// speed. Unset, one cell holds every station: the caller declares no
	// speed bound, so nothing is pruned.
	Grid bool
	// MaxSpeed is the declared upper bound on any station's speed in m/s.
	// The grid pads its cells by MaxSpeed·reindexInterval so a station
	// that moved since it was last bucketed is still found. 0 means all
	// stations are static between reindex passes.
	MaxSpeed float64
}

// reindexInterval is how much virtual time may pass before the grid
// re-buckets every station. Transmitting stations are re-bucketed on
// every send regardless.
const reindexInterval = time.Second

// Medium connects stations and delivers frames between them through the
// event scheduler.
type Medium struct {
	sched    *sim.Scheduler
	cfg      Config
	rng      *rand.Rand
	stations map[addr.Node]*station
	order    []addr.Node // deterministic iteration order
	stats    Stats

	downCount int // stations currently marked down

	// pool recycles the bursts handed to sim.AfterBurst, payload buffers
	// and receiver lists included, so a warm medium sends without
	// allocating.
	pool []*burst

	// Spatial index; cellSide is +Inf for the one-cell index.
	cells       map[geo.Cell][]*station
	cellSide    float64
	lastReindex time.Duration
	gen         uint64 // bumped whenever any bucket membership changes
	nbhd        map[geo.Cell]*neighborhood
}

// neighborhood caches the ord-sorted station union of one 3×3 cell block.
// Entries are validated against the medium's bucket generation: any
// attach, removal or cell crossing invalidates every cached union, and
// unions rebuild lazily on next use. Down stations stay in the union
// (power state changes nothing about cell membership) and are filtered
// at query time, so SetDown never invalidates.
type neighborhood struct {
	gen   uint64
	union []*station
}

// NewMedium creates a medium bound to the scheduler. Delivery randomness is
// drawn from the scheduler's RNG, keeping runs seed-deterministic.
func NewMedium(sched *sim.Scheduler, cfg Config) *Medium {
	if cfg.Prop == nil {
		cfg.Prop = UnitDisk{Range: 250}
	}
	if cfg.PropDelay <= 0 {
		cfg.PropDelay = time.Millisecond
	}
	// One cell of infinite side holds every station unless Grid declares
	// the speed bound; a propagation model with no range leaves no
	// positive side to grid by, so it stays one cell too.
	side := math.Inf(1)
	if cfg.Grid {
		if s := cfg.Prop.MaxRange() + cfg.MaxSpeed*reindexInterval.Seconds(); s > 0 {
			side = s
		}
	}
	return &Medium{
		sched:    sched,
		cfg:      cfg,
		rng:      sched.Rand(),
		stations: make(map[addr.Node]*station),
		cells:    make(map[geo.Cell][]*station),
		cellSide: side,
		nbhd:     make(map[geo.Cell]*neighborhood),
	}
}

// Attach registers a station. pos is sampled at transmission time so moving
// nodes are supported; handler receives delivered frames. Re-attaching an
// existing id replaces its position source and handler and clears any down
// mark, keeping the station's original iteration rank.
func (m *Medium) Attach(id addr.Node, pos func() geo.Point, handler Handler) {
	st := &station{id: id, pos: pos, handler: handler}
	if old, dup := m.stations[id]; dup {
		st.ord = old.ord
		if old.down {
			m.downCount--
		}
		m.bucketRemove(old)
	} else {
		st.ord = len(m.order)
		m.order = append(m.order, id)
	}
	m.stations[id] = st
	m.bucketInsert(st, geo.CellOf(st.pos(), m.cellSide))
}

// SetDown marks a station as powered off (true) or on (false); a down
// station neither sends nor receives. Used for failure injection.
func (m *Medium) SetDown(id addr.Node, down bool) {
	if st, ok := m.stations[id]; ok {
		if st.down != down {
			if down {
				m.downCount++
			} else {
				m.downCount--
			}
		}
		st.down = down
	}
}

// Stats returns a copy of the medium counters.
func (m *Medium) Stats() Stats { return m.stats }

// Neighbors returns the stations currently within (possibly lossy) range of
// id, in deterministic order.
func (m *Medium) Neighbors(id addr.Node) []addr.Node {
	return m.NeighborsInto(id, nil)
}

// NeighborsInto appends the stations currently within range of id to out
// and returns the extended slice — the allocation-free variant of
// Neighbors for callers that poll repeatedly (topology monitors, the
// equivalence harness, benchmarks; the OLSR layer itself never queries
// the medium — it learns neighbors from received HELLOs by design). The
// append order is the same deterministic attachment order Neighbors uses.
func (m *Medium) NeighborsInto(id addr.Node, out []addr.Node) []addr.Node {
	self, ok := m.stations[id]
	if !ok || self.down {
		return out
	}
	m.reindexIfStale()
	p := self.pos()
	m.bucketMove(self, p)
	for _, other := range m.neighborhoodOf(self.cell) {
		if other == self || other.down {
			continue
		}
		if m.cfg.Prop.DeliveryProb(p.Dist(other.pos())) > 0 {
			out = append(out, other.id)
		}
	}
	return out
}

// Send transmits payload from the named station. to may be a station id
// (link-layer unicast: delivered only to that station, still subject to
// range and loss) or addr.Broadcast (delivered to every station in range).
// Loss is drawn now, receiver by receiver in attachment order; the
// receivers that survive it get the frame after PropDelay, in that order,
// as one scheduler burst. Send copies payload, so the caller may reuse
// it as soon as Send returns.
//
//repro:allocfree
func (m *Medium) Send(from, to addr.Node, payload []byte) {
	src, ok := m.stations[from]
	if !ok || src.down {
		return
	}
	m.stats.FramesSent++
	m.stats.BytesSent += uint64(len(payload))

	srcPos := src.pos()
	b := m.takeBurst()
	if to == addr.Broadcast {
		m.reindexIfStale()
		m.bucketMove(src, srcPos)
		visited := 0
		for _, dst := range m.neighborhoodOf(src.cell) {
			if dst == src || dst.down {
				continue
			}
			visited++
			m.draw(b, srcPos, dst)
		}
		// Every station the grid pruned is out of range by the cell-size
		// contract; charge each one a lost frame, as if it had been visited.
		eligible := len(m.order) - m.downCount - 1
		m.stats.FramesLost += uint64(eligible - visited) //nolint:gosec // visited ⊆ eligible
	} else if dst, ok := m.stations[to]; ok && !dst.down {
		m.draw(b, srcPos, dst)
	}
	if len(b.dsts) == 0 {
		m.pool = append(m.pool, b)
		return
	}
	m.stats.BytesDelivered += uint64(len(b.dsts) * len(payload)) //nolint:gosec // both non-negative
	b.buf = append(b.buf[:0], payload...)
	b.frame = Frame{From: from, To: to, Payload: b.buf, Sent: m.sched.Now()}
	m.sched.AfterBurst(m.cfg.PropDelay, len(b.dsts), runBurst, b)
}

// draw consults the propagation model and the loss RNG for one candidate
// receiver and queues it on b if the frame survives.
func (m *Medium) draw(b *burst, srcPos geo.Point, dst *station) {
	p := m.cfg.Prop.DeliveryProb(srcPos.Dist(dst.pos()))
	if p <= 0 || m.rng.Float64() >= p {
		m.stats.FramesLost++
		return
	}
	m.stats.FramesDelivered++
	b.dsts = append(b.dsts, dst)
}

// burst is one transmission in flight: the frame, its own copy of the
// payload, and the receivers that survived the loss draw, in draw order.
// Instances cycle through Medium.pool; a burst returns there after its
// last receiver's handler, so a handler that sends gets another one.
type burst struct {
	m     *Medium
	frame Frame
	buf   []byte
	dsts  []*station
	next  int // index into dsts of the receiver the next call serves
}

// takeBurst takes a recycled burst or makes one.
func (m *Medium) takeBurst() *burst {
	if n := len(m.pool); n > 0 {
		b := m.pool[n-1]
		m.pool[n-1] = nil
		m.pool = m.pool[:n-1]
		return b
	}
	return &burst{m: m}
}

// runBurst is the sim.AfterBurst callback: hand the frame to the burst's
// next receiver, unless it powered down meanwhile, and recycle the burst
// after the last. The frame's payload is the burst's buffer, valid only
// during the handler call.
func runBurst(a any) {
	b, ok := a.(*burst)
	if !ok {
		return
	}
	dst := b.dsts[b.next]
	b.next++
	if !dst.down && dst.handler != nil {
		dst.handler(b.frame)
	}
	if b.next == len(b.dsts) {
		clear(b.dsts)
		b.dsts = b.dsts[:0]
		b.next = 0
		b.frame = Frame{}
		b.m.pool = append(b.m.pool, b)
	}
}

// --- spatial index maintenance ---

// reindexIfStale re-buckets every station once reindexInterval of virtual
// time has passed since the last full pass. Between passes a station's
// recorded cell may trail its true position by at most
// MaxSpeed·reindexInterval — exactly the padding built into the cell
// size — so the 3×3 candidate neighborhood still covers every station
// the propagation model could reach. The pass runs lazily inside queries
// rather than as a scheduled event: the medium must not perturb the
// scheduler's event count, which the scenario digests pin.
func (m *Medium) reindexIfStale() {
	now := m.sched.Now()
	if now-m.lastReindex < reindexInterval {
		return
	}
	m.lastReindex = now
	for _, id := range m.order {
		st := m.stations[id]
		m.bucketMove(st, st.pos())
	}
}

// bucketInsert places a station into cell c.
func (m *Medium) bucketInsert(st *station, c geo.Cell) {
	st.cell = c
	m.cells[c] = append(m.cells[c], st)
	m.gen++
}

// bucketRemove drops a station from its recorded cell.
func (m *Medium) bucketRemove(st *station) {
	bucket := m.cells[st.cell]
	for i, other := range bucket {
		if other == st {
			bucket[i] = bucket[len(bucket)-1]
			bucket[len(bucket)-1] = nil
			bucket = bucket[:len(bucket)-1]
			break
		}
	}
	if len(bucket) == 0 {
		delete(m.cells, st.cell)
	} else {
		m.cells[st.cell] = bucket
	}
	m.gen++
}

// bucketMove re-buckets a station whose sampled position is p.
func (m *Medium) bucketMove(st *station, p geo.Point) {
	c := geo.CellOf(p, m.cellSide)
	if c == st.cell {
		return
	}
	m.bucketRemove(st)
	m.bucketInsert(st, c)
}

// neighborhoodOf returns every station bucketed in the 3×3 cell block
// around c, sorted into attachment order so callers visit candidates in
// the same order under any cell side. The union is cached per cell and
// revalidated against the bucket generation — in quasi-static stretches
// (most of a run, even under mobility: a station crosses a ≥range-sized
// cell boundary rarely) a broadcast costs one map hit instead of nine
// plus a sort. Callers must still filter down stations and the sender.
func (m *Medium) neighborhoodOf(c geo.Cell) []*station {
	nb := m.nbhd[c]
	if nb != nil && nb.gen == m.gen {
		return nb.union
	}
	if nb == nil {
		nb = &neighborhood{}
		m.nbhd[c] = nb
	}
	nb.union = nb.union[:0]
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			nb.union = append(nb.union, m.cells[geo.Cell{CX: c.CX + dx, CY: c.CY + dy}]...)
		}
	}
	// Insertion sort: grid unions are small (~a dozen stations at working
	// densities) and rebuilt rarely, and the one-cell union is already in
	// attachment order unless a station re-attached; a generic sort's
	// indirection costs more than it saves here.
	s := nb.union
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].ord < s[j-1].ord; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	nb.gen = m.gen
	return s
}
