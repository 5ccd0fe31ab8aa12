// Package scenario is the declarative scenario subsystem: a Spec is a
// plain data structure — loadable from a JSON file or constructed in
// code — that names everything a simulated campaign needs: topology size
// and placement, mobility model, radio parameters, the attack mix, trust
// and detector configuration, duration, and seeds.
//
// Build instantiates a Spec into a core.Network; Run executes it and
// reduces the run to a Result whose canonical rendering (digest.go) is
// seeded and deterministic — the same Spec produces a byte-identical
// digest at any worker count, which is what lets the preset registry
// (presets.go) double as a golden regression corpus under
// testdata/golden/.
package scenario

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/trust"
)

// Scenario kinds: packet-level simulations run on core.Network; rounds
// scenarios parameterize the round-based §V abstraction behind the
// paper's figures (executed by internal/experiment, which owns that
// code).
const (
	KindPacket = "packet"
	KindRounds = "rounds"
)

// Duration is a time.Duration that marshals as a human-readable string
// ("90s", "4m") and unmarshals from either that form or a float number
// of seconds.
type Duration time.Duration

// D converts to time.Duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

// Dur converts from time.Duration.
func Dur(d time.Duration) Duration { return Duration(d) }

// DurPtr converts to an optional Duration field (MobilitySpec.Pause and
// .Epoch distinguish nil = "use the default" from an explicit zero).
func DurPtr(d time.Duration) *Duration {
	v := Duration(d)
	return &v
}

// String renders like time.Duration.
func (d Duration) String() string { return time.Duration(d).String() }

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("scenario: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var secs float64
	if err := json.Unmarshal(b, &secs); err != nil {
		return fmt.Errorf("scenario: duration must be a string or seconds: %s", b)
	}
	*d = Duration(float64(time.Second) * secs)
	return nil
}

// Position is an explicit node coordinate in meters.
type Position struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// RadioSpec selects and parameterizes the propagation model.
type RadioSpec struct {
	// Model is "unitdisk" (default) or "lossy".
	Model string `json:"model,omitempty"`
	// Medium picks the spatial index's cell side (radio.Config.Grid):
	// "scan" (default) is one cell holding every station, with no
	// pruning; "grid" is cells of range plus mobility.maxSpeed·1s, which
	// skip distant stations. Both run the same medium code to
	// byte-identical digests — the golden cross-check enforces it — so
	// the choice is purely about speed at scale.
	Medium string `json:"medium,omitempty"`
	// Range is the (reliable) radio range in meters (default 200).
	Range float64 `json:"range,omitempty"`
	// FadeRange and Loss parameterize the lossy model (see radio.LossyDisk).
	FadeRange float64 `json:"fadeRange,omitempty"`
	Loss      float64 `json:"loss,omitempty"`
	// PropDelay is the per-hop propagation delay (default 1ms); it is
	// the whole delivery delay, whatever the payload size.
	PropDelay Duration `json:"propDelay,omitempty"`
}

// MobilitySpec selects and parameterizes the movement model applied to
// every (honest, unpinned) node.
type MobilitySpec struct {
	// Model is "static" (default), "waypoint" or "walk".
	Model string `json:"model,omitempty"`
	// MinSpeed and MaxSpeed bound waypoint speeds; MaxSpeed alone drives
	// the walk model. Both in m/s.
	MinSpeed float64 `json:"minSpeed,omitempty"`
	MaxSpeed float64 `json:"maxSpeed,omitempty"`
	// Pause is the waypoint dwell time. Nil (absent in JSON) defaults to
	// 5s; an explicit "0s" declares pause-free waypoint motion — the
	// pointer is what distinguishes "unset" from "zero".
	Pause *Duration `json:"pause,omitempty"`
	// Epoch is the walk segment duration; nil defaults to 10s. Unlike
	// Pause, an explicit zero still resolves to 10s — a zero-length walk
	// segment is degenerate, so mobility.NewRandomWalk re-defaults it;
	// the unset-vs-zero distinction the pointer preserves is only
	// meaningful for Pause.
	Epoch *Duration `json:"epoch,omitempty"`
}

// durOf dereferences an optional duration, substituting def when unset.
func durOf(d *Duration, def time.Duration) time.Duration {
	if d == nil {
		return def
	}
	return d.D()
}

// AttackSpec is one adversarial behavior of the mix. Node (and for some
// kinds Peer) are 1-based node indices.
type AttackSpec struct {
	// Kind is one of "linkspoof", "blackhole", "grayhole", "wormhole",
	// "colluding", "storm", "logforge", "badmouth" or "ballotstuff".
	Kind string `json:"kind"`
	// Node is the attacking node (the first mouth/member for wormhole
	// and colluding).
	Node int `json:"node"`
	// Peer is the second wormhole mouth, the second colluding member, the
	// originator a storm masquerades as, the single suspect a logforge
	// node covers for (0 = every attacker in the mix), the honest node a
	// badmouth recommender frames (0 = every honest node), or the
	// accomplice a ballotstuff recommender vouches for (0 = every
	// attacker in the mix).
	Peer int `json:"peer,omitempty"`
	// Mode selects the link-spoofing variant: "phantom" (default),
	// "claim" or "omit". Colluding groups default to "claim".
	Mode string `json:"mode,omitempty"`
	// Target is the node the spoof is about (0 = the conventional
	// phantom address, node index Nodes+83) or the neighbor a storm's
	// forged TCs advertise (0 = the victim).
	Target int `json:"target,omitempty"`
	// At is when the attack activates (0 = from the start).
	At Duration `json:"at,omitempty"`
	// For bounds the attack duration (0 = until the end of the run).
	// Only storms honor it today.
	For Duration `json:"for,omitempty"`
	// Ratio is the grayhole drop fraction in [0,1].
	Ratio float64 `json:"ratio,omitempty"`
	// Interval is the storm emission period (default 400ms).
	Interval Duration `json:"interval,omitempty"`
	// Delay is the wormhole tunnel latency (default 0).
	Delay Duration `json:"delay,omitempty"`
	// OnOff, for the recommender kinds, alternates dishonest and
	// camouflaged gossip phases of this length (0 = always dishonest) —
	// the on-off evasion of the deviation test.
	OnOff Duration `json:"onOff,omitempty"`
	// Pin places the attacker statically half a radio range from the
	// victim, guaranteeing adjacency regardless of placement.
	Pin bool `json:"pin,omitempty"`
	// DropCtrl makes the attacker silently discard control-plane
	// messages it should relay (investigation traffic).
	DropCtrl bool `json:"dropCtrl,omitempty"`
}

// EvidenceSpec enables the tamper-evident evidence plane (DESIGN.md §8):
// sealed audit logs gossip their Merkle tree heads, investigation
// replies carry record citations with inclusion proofs, and the victim's
// detector verifies the proofs before counting testimony. Off by
// default — the plane adds gossip traffic and scheduler events, so
// enabling it changes a scenario's digest. The gossip period and the
// proof weight are constants of core and detect.
type EvidenceSpec struct {
	Enabled bool `json:"enabled"`
}

// ReputationSpec enables the reputation plane (DESIGN.md §9): nodes
// gossip trust vectors, receivers filter them through a deviation test,
// maintain a separate recommendation-trust ledger, and detectors
// bootstrap trust in strangers via Eq. 6/7. Off by default — the plane
// adds gossip traffic and scheduler events, so enabling it changes a
// scenario's digest. The gossip period and the ledger's thresholds are
// constants of core and reputation.
type ReputationSpec struct {
	Enabled bool `json:"enabled"`
	// NoFilter disables the deviation test (the X9 ablation arm).
	NoFilter bool `json:"noFilter,omitempty"`
}

// TraceSpec requests the run-trace plane (DESIGN.md §13) for a scenario.
// The spec only *requests* tracing — it names no destination, because a
// sink is a runtime object (a file, a campaign recorder), not data. The
// runner that executes the spec decides where events go: manetd attaches
// an in-memory recorder when Enabled, the experiment engine a per-trial
// NDJSON file, and the CLIs whatever -trace names. Tracing is pure
// observation, so a traced run's digest is byte-identical to an untraced
// one — the flag changes no goldens.
type TraceSpec struct {
	Enabled bool `json:"enabled"`
}

// RoundsSpec parameterizes a rounds-kind scenario (the §V round-based
// abstraction behind Figures 1-3; see experiment.Config).
type RoundsSpec struct {
	Rounds int `json:"rounds"`
	// NonAnswerProb is the chance an answer is lost to the medium.
	// 0 (unset) keeps the experiment default of 10%; use a negative
	// value for an explicitly lossless medium.
	NonAnswerProb   float64 `json:"nonAnswerProb,omitempty"`
	InitialTrustMin float64 `json:"initialTrustMin,omitempty"`
	InitialTrustMax float64 `json:"initialTrustMax,omitempty"`
	// LiarCounts is the Figure-3 sweep axis (counts of colluding liars).
	LiarCounts []int `json:"liarCounts,omitempty"`
}

// SpecVersion is the current wire-format version of Spec. Version 1 is
// the format the PR 2 corpus froze; a Spec with Version 0 (the field
// omitted from JSON) means version 1. Decoders reject any other value,
// so a remote caller speaking a future format fails loudly instead of
// being silently misread (Parse additionally rejects unknown top-level
// keys via DisallowUnknownFields).
const SpecVersion = 1

// Spec is a complete declarative scenario. No field selects the
// control-plane codec: every run speaks the binary envelope (DESIGN.md
// §10), and Parse rejects the retired v1 field "binaryCtrl" by name.
type Spec struct {
	// Version is the wire-format version (0 or SpecVersion today; 0
	// means "current", so hand-written specs need not carry the field).
	Version     int    `json:"version,omitempty"`
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Kind is KindPacket (default) or KindRounds.
	Kind string `json:"kind,omitempty"`
	Seed int64  `json:"seed"`
	// Nodes is the population size (default 16).
	Nodes int `json:"nodes"`
	// ArenaSide is the square arena side in meters (default 500).
	ArenaSide float64 `json:"arenaSide,omitempty"`
	// Placement is "grid" (default), "line", "ring" or "uniform";
	// Positions overrides it with explicit per-node coordinates.
	Placement string     `json:"placement,omitempty"`
	Spacing   float64    `json:"spacing,omitempty"` // line spacing / ring radius
	Positions []Position `json:"positions,omitempty"`
	// Duration is the simulated time (default 3m).
	Duration Duration     `json:"duration"`
	Radio    RadioSpec    `json:"radio"`
	Mobility MobilitySpec `json:"mobility"`
	// Scale marks a large-N preset: excluded from the default golden
	// corpus (PacketPresets) and exercised by the scale CI job instead
	// (ScalePresets, TestGoldenScale).
	Scale bool `json:"scale,omitempty"`
	// Victim is the observing/detecting node (default 1).
	Victim int `json:"victim,omitempty"`
	// DetectAll runs a detector on every node instead of the victim only.
	DetectAll bool `json:"detectAll,omitempty"`
	// Liars is the number of colluding responders (nodes 2..1+Liars)
	// that answer investigations about any attacker falsely.
	Liars int `json:"liars,omitempty"`
	// Trust overrides the trust constants of every detector.
	Trust *trust.Params `json:"trust,omitempty"`
	// Evidence enables the tamper-evident evidence plane.
	Evidence *EvidenceSpec `json:"evidence,omitempty"`
	// Reputation enables recommendation gossip and trust propagation.
	Reputation *ReputationSpec `json:"reputation,omitempty"`
	// Trace requests the run-trace plane; the runner picks the sink.
	Trace *TraceSpec `json:"trace,omitempty"`
	// Attacks is the adversary mix.
	Attacks []AttackSpec `json:"attacks,omitempty"`
	// Rounds parameterizes rounds-kind scenarios.
	Rounds *RoundsSpec `json:"rounds,omitempty"`
	// Custom, settable only in code, runs after every node is added and
	// before routers start — the escape hatch for choreography the
	// declarative surface cannot express (monitors, failure injection,
	// replay captures). Scenarios using it are still deterministic as
	// long as the hook only touches the network's own scheduler and RNG.
	Custom func(*core.Network) `json:"-"`
}

// WithDefaults returns the spec with unset fields resolved.
func (s Spec) WithDefaults() Spec {
	if s.Kind == "" {
		s.Kind = KindPacket
	}
	if s.Nodes <= 0 {
		s.Nodes = 16
	}
	if s.ArenaSide <= 0 {
		s.ArenaSide = 500
	}
	if s.Placement == "" {
		s.Placement = "grid"
	}
	if s.Duration <= 0 {
		s.Duration = Dur(3 * time.Minute)
	}
	if s.Victim <= 0 {
		s.Victim = 1
	}
	if s.Radio.Model == "" {
		s.Radio.Model = "unitdisk"
	}
	if s.Radio.Medium == "" {
		s.Radio.Medium = "scan"
	}
	if s.Radio.Range <= 0 {
		s.Radio.Range = 200
	}
	if s.Radio.PropDelay <= 0 {
		s.Radio.PropDelay = Dur(time.Millisecond)
	}
	if s.Mobility.Model == "" {
		s.Mobility.Model = "static"
	}
	// Pause and Epoch default at the point of use (mobilityFor): nil
	// means "take the default", while an explicit zero — a pause-free
	// waypoint model — survives defaulting untouched.
	return s
}

// Validate reports the first problem with the spec, after defaulting.
func (s Spec) Validate() error {
	s = s.WithDefaults()
	if s.Version != 0 && s.Version != SpecVersion {
		return fmt.Errorf("scenario %q: unsupported spec version %d (this build speaks version %d)",
			s.Name, s.Version, SpecVersion)
	}
	switch s.Kind {
	case KindPacket, KindRounds:
	default:
		return fmt.Errorf("scenario %q: unknown kind %q", s.Name, s.Kind)
	}
	if s.Trust != nil {
		if err := validateTrust(*s.Trust); err != nil {
			return fmt.Errorf("scenario %q: trust: %w", s.Name, err)
		}
	}
	if s.Kind == KindRounds {
		if len(s.Attacks) > 0 {
			return fmt.Errorf("scenario %q: rounds scenarios take no attack mix", s.Name)
		}
		return s.validateRounds()
	}
	switch s.Placement {
	case "grid", "line", "ring", "uniform":
	default:
		return fmt.Errorf("scenario %q: unknown placement %q", s.Name, s.Placement)
	}
	if len(s.Positions) > 0 && len(s.Positions) != s.Nodes {
		return fmt.Errorf("scenario %q: %d positions for %d nodes", s.Name, len(s.Positions), s.Nodes)
	}
	switch s.Radio.Model {
	case "unitdisk", "lossy":
	default:
		return fmt.Errorf("scenario %q: unknown radio model %q", s.Name, s.Radio.Model)
	}
	switch s.Radio.Medium {
	case "", "scan", "grid":
	default:
		return fmt.Errorf("scenario %q: unknown radio medium %q", s.Name, s.Radio.Medium)
	}
	switch s.Mobility.Model {
	case "static", "waypoint", "walk":
	default:
		return fmt.Errorf("scenario %q: unknown mobility model %q", s.Name, s.Mobility.Model)
	}
	// MaxSpeed pads the grid medium's cells, so it must bound every
	// station's speed: a negative bound shrinks cells below the radio
	// range, and the waypoint model raises its top speed to MinSpeed.
	if s.Mobility.MaxSpeed < 0 {
		return fmt.Errorf("scenario %q: mobility.maxSpeed %v is negative", s.Name, s.Mobility.MaxSpeed)
	}
	if s.Mobility.MinSpeed > s.Mobility.MaxSpeed {
		return fmt.Errorf("scenario %q: mobility.minSpeed %v exceeds mobility.maxSpeed %v",
			s.Name, s.Mobility.MinSpeed, s.Mobility.MaxSpeed)
	}
	if s.Victim > s.Nodes {
		return fmt.Errorf("scenario %q: victim %d outside population %d", s.Name, s.Victim, s.Nodes)
	}
	if s.Liars < 0 || s.Liars > s.Nodes-1 {
		return fmt.Errorf("scenario %q: %d liars in a population of %d", s.Name, s.Liars, s.Nodes)
	}
	claimed := map[int]string{}
	claimedRec := map[int]bool{}
	for i, a := range s.Attacks {
		if err := s.validateAttack(a); err != nil {
			return fmt.Errorf("scenario %q: attack %d: %w", s.Name, i, err)
		}
		// Recommender attacks occupy their own per-node slot (the gossip
		// hook), orthogonal to the role-bearing router attacks below.
		if a.Kind == "badmouth" || a.Kind == "ballotstuff" {
			if claimedRec[a.Node] {
				return fmt.Errorf("scenario %q: attack %d: node %d already carries a recommender attack",
					s.Name, i, a.Node)
			}
			claimedRec[a.Node] = true
			continue
		}
		// A node carries at most one role-bearing attack: the spoofer and
		// drop hooks occupy the same router slots (core.NodeSpec installs
		// Hooks only when no Spoofer is set), so a second role would be
		// silently ignored rather than combined.
		var roleNodes []int
		switch a.Kind {
		case "linkspoof", "blackhole", "grayhole", "logforge":
			roleNodes = []int{a.Node}
		case "colluding":
			roleNodes = []int{a.Node, a.Peer}
		}
		for _, n := range roleNodes {
			if prev, dup := claimed[n]; dup {
				return fmt.Errorf("scenario %q: attack %d: node %d already carries a %s attack; one role-bearing attack per node",
					s.Name, i, n, prev)
			}
			claimed[n] = a.Kind
		}
	}
	return nil
}

// validateRounds checks a rounds scenario against the §V population it
// runs (experiment.NewPopulation): node 1 observes, the last node attacks
// and the Nodes−2 between them answer, so at most that many can lie.
func (s Spec) validateRounds() error {
	r := s.Rounds
	if r == nil {
		return fmt.Errorf("scenario %q: rounds scenarios need a rounds block", s.Name)
	}
	if s.Nodes < 4 {
		return fmt.Errorf("scenario %q: %d nodes, rounds scenarios need at least 4", s.Name, s.Nodes)
	}
	responders := s.Nodes - 2
	for _, liars := range append([]int{s.Liars}, r.LiarCounts...) {
		if liars < 0 || liars > responders {
			return fmt.Errorf("scenario %q: %d liars among %d responders", s.Name, liars, responders)
		}
	}
	if !(r.NonAnswerProb <= 1) {
		return fmt.Errorf("scenario %q: rounds.nonAnswerProb %v above 1", s.Name, r.NonAnswerProb)
	}
	// An unset range (both zero) keeps the experiment default.
	lo, hi := r.InitialTrustMin, r.InitialTrustMax
	if (lo != 0 || hi != 0) && !(0 <= lo && lo <= hi && hi <= 1) {
		return fmt.Errorf("scenario %q: rounds.initialTrustMin %v and initialTrustMax %v are not a range within [0,1]",
			s.Name, lo, hi)
	}
	return nil
}

// validateTrust checks a trust override. The override replaces every
// constant, so a partial JSON object — {"Gamma": 0.6} — leaves the rest
// at zero; the bounds below reject that instead of running it.
func validateTrust(p trust.Params) error {
	switch {
	case !(p.Min < p.Max):
		return fmt.Errorf("Min %v not below Max %v", p.Min, p.Max)
	case !(p.Default >= p.Min && p.Default <= p.Max):
		return fmt.Errorf("Default %v outside [Min %v, Max %v]", p.Default, p.Min, p.Max)
	case !(p.ConfidenceLevel > 0 && p.ConfidenceLevel < 1):
		return fmt.Errorf("ConfidenceLevel %v outside (0,1)", p.ConfidenceLevel)
	case !(p.Beta >= 0 && p.Beta <= 1):
		return fmt.Errorf("Beta %v outside [0,1]", p.Beta)
	case !(p.RelaxBeta >= 0 && p.RelaxBeta <= 1):
		return fmt.Errorf("RelaxBeta %v outside [0,1]", p.RelaxBeta)
	case !(p.AlphaPos >= 0):
		return fmt.Errorf("AlphaPos %v negative", p.AlphaPos)
	case !(p.AlphaNeg >= 0):
		return fmt.Errorf("AlphaNeg %v negative", p.AlphaNeg)
	}
	return nil
}

// validateAttack checks one attack entry against the defaulted spec.
func (s Spec) validateAttack(a AttackSpec) error {
	inPop := func(n int) bool { return n >= 1 && n <= s.Nodes }
	if !inPop(a.Node) {
		return fmt.Errorf("%s: node %d outside population %d", a.Kind, a.Node, s.Nodes)
	}
	switch a.Kind {
	case "linkspoof":
		switch a.Mode {
		case "", "phantom", "claim", "omit":
		default:
			return fmt.Errorf("linkspoof: unknown mode %q", a.Mode)
		}
	case "blackhole":
	case "grayhole":
		if a.Ratio < 0 || a.Ratio > 1 {
			return fmt.Errorf("grayhole: ratio %v outside [0,1]", a.Ratio)
		}
	case "wormhole", "colluding":
		if !inPop(a.Peer) {
			return fmt.Errorf("%s: peer %d outside population %d", a.Kind, a.Peer, s.Nodes)
		}
		if a.Peer == a.Node {
			return fmt.Errorf("%s: node and peer are both %d", a.Kind, a.Node)
		}
	case "storm":
		if !inPop(a.Peer) {
			return fmt.Errorf("storm: masqueraded peer %d outside population %d", a.Peer, s.Nodes)
		}
	case "logforge":
		if s.Evidence == nil || !s.Evidence.Enabled {
			return fmt.Errorf("logforge: node %d forges evidence but the spec enables no evidence plane", a.Node)
		}
		if a.Peer != 0 && !inPop(a.Peer) {
			return fmt.Errorf("logforge: protected peer %d outside population %d", a.Peer, s.Nodes)
		}
		if a.Peer == a.Node {
			return fmt.Errorf("logforge: node %d cannot alibi itself (suspects are never interrogated)", a.Node)
		}
	case "badmouth", "ballotstuff":
		if s.Reputation == nil || !s.Reputation.Enabled {
			return fmt.Errorf("%s: node %d forges recommendations but the spec enables no reputation plane", a.Kind, a.Node)
		}
		if a.Peer != 0 && !inPop(a.Peer) {
			return fmt.Errorf("%s: target %d outside population %d", a.Kind, a.Peer, s.Nodes)
		}
		if a.Peer == a.Node {
			return fmt.Errorf("%s: node %d cannot recommend about itself (self-promotion is discarded)", a.Kind, a.Node)
		}
		if a.OnOff < 0 {
			return fmt.Errorf("%s: negative onOff period %s", a.Kind, a.OnOff)
		}
	default:
		return fmt.Errorf("unknown attack kind %q", a.Kind)
	}
	return nil
}

// Parse decodes a JSON spec, rejecting unknown fields, and validates it.
func Parse(data []byte) (Spec, error) {
	var spec Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// Load reads and parses a spec file.
func Load(path string) (Spec, error) {
	data, err := os.ReadFile(path) //nolint:gosec // operator-supplied path
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return Spec{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// DeriveSeed maps a task's coordinates to an independent RNG seed:
// FNV-1a over (root, label, point, trial) followed by a SplitMix64
// finalizer for avalanche, so adjacent coordinates yield uncorrelated
// streams. The function is pure and stable: the same inputs produce the
// same seed on every platform and in every process, which is what makes
// parallel runs bit-identical to serial ones. It lives here so both the
// scenario builder (per-node mobility seeds, attack RNGs) and the
// experiment engine (Runner.TaskSeed, TrialSeed) derive from the same
// tree.
func DeriveSeed(root int64, label string, point, trial int) int64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(root))
	h.Write(buf[:])
	h.Write([]byte(label))
	binary.LittleEndian.PutUint64(buf[:], uint64(int64(point)))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(int64(trial)))
	h.Write(buf[:])
	s := h.Sum64()
	s ^= s >> 30
	s *= 0xbf58476d1ce4e5b9
	s ^= s >> 27
	s *= 0x94d049bb133111eb
	s ^= s >> 31
	return int64(s)
}
