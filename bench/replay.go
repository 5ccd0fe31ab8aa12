package bench

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"repro/internal/addr"
	"repro/internal/auditlog"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/olsr"
	"repro/internal/radio"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/trust"
	"repro/internal/wire"
)

// The replay tier times single layers' public calls on a corpus recorded
// from a real run: the frames delivered at the victim's position, the
// audit records the victim's router writes for them, and a sample of the
// run's trace events. Each figure is the median of replaySamples
// samples, each long enough to swamp the clock's resolution.
const (
	replaySamples   = 7
	replayMinSample = 10 * time.Millisecond
	// traceStride and traceCap bound the trace-event sample: every
	// traceStride-th event, at most traceCap of them.
	traceStride = 16
	traceCap    = 50000
	// snifferOffset places the recording station's id past every id a
	// scenario assigns (phantoms at +83, wormhole mouths from +900).
	snifferOffset = 500
)

// replayResult is one replay benchmark's outcome, per item.
type replayResult struct {
	ns, allocs float64
	samples    int
}

// corpusFrame is one recorded frame.
type corpusFrame struct {
	from    addr.Node
	at      time.Duration
	payload []byte
}

// corpus is everything the replay tier feeds the layers.
type corpus struct {
	spec   scenario.Spec // defaulted
	victim addr.Node
	frames []corpusFrame
	events []trace.Event
}

// sampleSink keeps every traceStride-th event, up to traceCap.
type sampleSink struct {
	n      int
	events []trace.Event
}

func (s *sampleSink) Event(e trace.Event) {
	s.n++
	if s.n%traceStride == 0 && len(s.events) < traceCap {
		s.events = append(s.events, e)
	}
}

// recordCorpus runs the preset once, untimed, with a sniffer station at
// the victim's position. The sniffer is an extra station, so this run's
// digest differs from the preset's; it is never checked or timed.
func recordCorpus(name string, seed int64, until time.Duration) (*corpus, error) {
	spec, ok := scenario.Get(name)
	if !ok {
		return nil, fmt.Errorf("no preset %q", name)
	}
	spec = spec.WithDefaults()
	spec.Seed = seed
	if until > 0 && until < spec.Duration.D() {
		spec.Duration = scenario.Dur(until)
	}
	c := &corpus{spec: spec, victim: addr.NodeAt(spec.Victim)}
	sniffer := addr.NodeAt(spec.Nodes + snifferOffset)
	spec.Custom = func(w *core.Network) {
		w.Medium.Attach(sniffer, w.Node(c.victim).Position, func(f radio.Frame) {
			if f.From != c.victim {
				c.frames = append(c.frames, corpusFrame{f.From, w.Sched.Now(), bytes.Clone(f.Payload)})
			}
		})
	}
	sink := &sampleSink{}
	if _, err := scenario.RunTraced(spec, sink); err != nil {
		return nil, err
	}
	c.events = sink.events
	return c, nil
}

// measure times body, a pass over items corpus entries. prepare (untimed)
// resets the state a pass consumes; it may be nil.
func measure(items int, prepare, body func()) replayResult {
	if items == 0 {
		return replayResult{}
	}
	per := make([]float64, replaySamples)
	var allocs, done uint64
	for i := range per {
		var el time.Duration
		n := 0
		for el < replayMinSample {
			if prepare != nil {
				prepare()
			}
			a := readUsage().allocs
			start := time.Now()
			body()
			el += time.Since(start)
			allocs += readUsage().allocs - a
			n += items
		}
		per[i] = float64(el.Nanoseconds()) / float64(n)
		done += uint64(n)
	}
	return replayResult{ns: Median(per), allocs: float64(allocs) / float64(done), samples: replaySamples}
}

// replayTier records the workload's corpus and times every replay op.
func replayTier(w workload, seed int64) (map[string]replayResult, error) {
	c, err := recordCorpus(w.corpus, seed, w.corpusUntil)
	if err != nil {
		return nil, err
	}
	var olsrFrames []corpusFrame
	for _, f := range c.frames {
		if len(f.payload) > 1 && f.payload[0] == core.PayloadOLSR {
			olsrFrames = append(olsrFrames, f)
		}
	}
	if len(olsrFrames) == 0 {
		return nil, fmt.Errorf("corpus of %s holds no OLSR frames", w.corpus)
	}
	out := map[string]replayResult{}

	noop := func() {}
	out["sim.schedule"] = measure(len(c.frames), nil, func() {
		s := sim.New(seed)
		for _, f := range c.frames {
			s.After(f.at, noop)
		}
		s.Run()
	})

	medium, sched, err := replayMedium(c, seed)
	if err != nil {
		return nil, err
	}
	out["radio.send"] = measure(len(c.frames), sched.Run, func() {
		for _, f := range c.frames {
			medium.Send(f.from, addr.Broadcast, f.payload)
		}
	})
	sched.Run()

	pkts := make([]*wire.Packet, len(olsrFrames))
	for i, f := range olsrFrames {
		if pkts[i], err = wire.DecodePacket(f.payload[1:]); err != nil {
			return nil, fmt.Errorf("corpus frame %d: %w", i, err)
		}
	}
	out["wire.decode"] = measure(len(olsrFrames), nil, func() {
		for _, f := range olsrFrames {
			_, _ = wire.DecodePacket(f.payload[1:]) // every frame decoded above
		}
	})
	buf := make([]byte, 0, 2048)
	out["wire.encode"] = measure(len(pkts), nil, func() {
		for _, p := range pkts {
			buf = p.AppendTo(buf[:0])
		}
	})

	// A fresh router per pass: duplicate suppression would turn a second
	// pass over the same frames into no-ops.
	var router *olsr.Node
	var rsched *sim.Scheduler
	var logb *auditlog.Buffer
	out["olsr.ingest"] = measure(len(olsrFrames), func() {
		rsched = sim.New(seed)
		logb = &auditlog.Buffer{}
		router = olsr.New(olsr.Config{Addr: c.victim}, rsched, func([]byte) {}, logb)
	}, func() {
		for _, f := range olsrFrames {
			rsched.RunUntil(f.at)
			router.HandlePacket(f.from, f.payload[1:])
		}
	})
	records, _ := logb.Since(0)

	out["trust.update"], out["trust.detect"] = replayTrust(c)

	var lb *auditlog.Buffer
	out["auditlog.append"] = measure(len(records), func() { lb = &auditlog.Buffer{} }, func() {
		for _, r := range records {
			lb.Append(r)
		}
	})
	out["auditlog.sealed_append"] = measure(len(records), func() {
		lb = &auditlog.Buffer{}
		lb.SetSealKey([]byte("manetbench"))
	}, func() {
		for _, r := range records {
			lb.Append(r)
		}
	})

	out["trace.emit"] = measure(len(c.events), nil, func() {
		for i := range c.events {
			buf = c.events[i].AppendNDJSON(buf[:0])
		}
	})
	return out, nil
}

// replayMedium attaches a station at every node's starting position of
// the corpus scenario, with no-op receivers.
func replayMedium(c *corpus, seed int64) (*radio.Medium, *sim.Scheduler, error) {
	b, err := scenario.Build(c.spec)
	if err != nil {
		return nil, nil, err
	}
	sched := sim.New(seed)
	m := radio.NewMedium(sched, radio.Config{
		Prop:      radio.UnitDisk{Range: c.spec.Radio.Range},
		PropDelay: c.spec.Radio.PropDelay.D(),
		Grid:      c.spec.Radio.Medium == "grid",
	})
	for _, id := range b.Net.Nodes() {
		p := b.Net.Node(id).Position()
		m.Attach(id, func() geo.Point { return p }, func(radio.Frame) {})
	}
	return m, sched, nil
}

// replayTrust feeds the victim's trust store one evidence item per
// corpus frame — negative for frames the attacker sends once its attack
// is active, positive otherwise — and aggregates one Eq. 8 detection
// over every sender per frame.
func replayTrust(c *corpus) (update, detect replayResult) {
	attackers := map[addr.Node]time.Duration{}
	for _, a := range c.spec.Attacks {
		attackers[addr.NodeAt(a.Node)] = a.At.D()
	}
	pos := []trust.Evidence{{Value: 1}}
	neg := []trust.Evidence{{Value: -1}}
	ev := make([][]trust.Evidence, len(c.frames))
	senders := map[addr.Node]bool{}
	for i, f := range c.frames {
		ev[i] = pos
		if at, ok := attackers[f.from]; ok && f.at >= at {
			ev[i] = neg
		}
		senders[f.from] = true
	}
	var store *trust.Store
	update = measure(len(c.frames), func() { store = trust.NewStore(trust.DefaultParams()) }, func() {
		for i, f := range c.frames {
			store.Update(f.from, ev[i])
		}
	})
	ids := make([]addr.Node, 0, len(senders))
	for id := range senders {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	obs := make([]trust.Observation, len(ids))
	for i, id := range ids {
		obs[i] = trust.Observation{Source: id, Trust: store.Get(id), Evidence: 1}
		if _, ok := attackers[id]; ok {
			obs[i].Evidence = -1
		}
	}
	detect = measure(len(c.frames), nil, func() {
		for range c.frames {
			_, _ = trust.Detect(obs) // only its cost matters here
		}
	})
	return update, detect
}
