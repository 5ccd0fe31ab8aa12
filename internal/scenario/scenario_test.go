package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/trust"
)

// mobilityProbeStart is a fixed start point for mobility probes.
var mobilityProbeStart = geo.Pt(100, 100)

func TestDurationJSON(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
	}{
		{`"90s"`, 90 * time.Second},
		{`"4m"`, 4 * time.Minute},
		{`30`, 30 * time.Second},
		{`1.5`, 1500 * time.Millisecond},
	}
	for _, c := range cases {
		var d Duration
		if err := d.UnmarshalJSON([]byte(c.in)); err != nil {
			t.Fatalf("unmarshal %s: %v", c.in, err)
		}
		if d.D() != c.want {
			t.Errorf("unmarshal %s = %v, want %v", c.in, d.D(), c.want)
		}
	}
	var d Duration
	if err := d.UnmarshalJSON([]byte(`"bogus"`)); err == nil {
		t.Error("bogus duration accepted")
	}
	b, err := Dur(90 * time.Second).MarshalJSON()
	if err != nil || string(b) != `"1m30s"` {
		t.Errorf("marshal = %s, %v", b, err)
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	spec, ok := Get("linkspoof")
	if !ok {
		t.Fatal("linkspoof preset missing")
	}
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatalf("round trip: %v\n%s", err, data)
	}
	r1, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(back)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Digest() != r2.Digest() {
		t.Errorf("digest changed across JSON round trip:\n%s\nvs\n%s", r1.Canonical(), r2.Canonical())
	}
}

func TestLoadSpecFile(t *testing.T) {
	spec, _ := Get("grayhole")
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "grayhole.json")
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Name != "grayhole" || len(loaded.Attacks) != 1 || loaded.Attacks[0].Ratio != 0.5 {
		t.Errorf("loaded spec mangled: %+v", loaded)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file loaded")
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	if _, err := Parse([]byte(`{"name":"x","nodez":4}`)); err == nil {
		t.Error("unknown field accepted")
	}
}

func TestValidate(t *testing.T) {
	bad := []Spec{
		{Name: "k", Kind: "quantum"},
		{Name: "p", Placement: "spiral"},
		{Name: "r", Radio: RadioSpec{Model: "maxwell"}},
		{Name: "m", Mobility: MobilitySpec{Model: "teleport"}},
		{Name: "v", Nodes: 4, Victim: 9},
		{Name: "l", Nodes: 4, Liars: 4},
		{Name: "pos", Nodes: 4, Positions: []Position{{}, {}}},
		{Name: "a-kind", Attacks: []AttackSpec{{Kind: "ddos", Node: 1}}},
		{Name: "a-node", Attacks: []AttackSpec{{Kind: "blackhole", Node: 99}}},
		{Name: "a-mode", Attacks: []AttackSpec{{Kind: "linkspoof", Node: 1, Mode: "subtle"}}},
		{Name: "a-ratio", Attacks: []AttackSpec{{Kind: "grayhole", Node: 1, Ratio: 1.5}}},
		{Name: "a-peer", Attacks: []AttackSpec{{Kind: "wormhole", Node: 1, Peer: 99}}},
		{Name: "a-self", Attacks: []AttackSpec{{Kind: "colluding", Node: 2, Peer: 2}}},
		{Name: "a-storm", Attacks: []AttackSpec{{Kind: "storm", Node: 1}}},
		{Name: "rounds-att", Kind: KindRounds, Attacks: []AttackSpec{{Kind: "blackhole", Node: 1}}},
		// A rounds scenario runs the §V population: node 1 observes, the
		// last node attacks, and only the Nodes-2 between them can lie.
		{Name: "rounds-none", Kind: KindRounds},
		{Name: "rounds-nodes", Kind: KindRounds, Nodes: 2, Rounds: &RoundsSpec{}},
		{Name: "rounds-liars", Kind: KindRounds, Nodes: 16, Liars: 40, Rounds: &RoundsSpec{}},
		{Name: "rounds-liars-all", Kind: KindRounds, Nodes: 16, Liars: 15, Rounds: &RoundsSpec{}},
		{Name: "rounds-liars-neg", Kind: KindRounds, Nodes: 16, Liars: -3, Rounds: &RoundsSpec{}},
		{Name: "rounds-counts-neg", Kind: KindRounds, Rounds: &RoundsSpec{LiarCounts: []int{-1, 4}}},
		{Name: "rounds-counts-big", Kind: KindRounds, Rounds: &RoundsSpec{LiarCounts: []int{4, 99}}},
		{Name: "rounds-loss", Kind: KindRounds, Rounds: &RoundsSpec{NonAnswerProb: 7}},
		{Name: "rounds-trust-order", Kind: KindRounds, Rounds: &RoundsSpec{InitialTrustMin: 0.9, InitialTrustMax: 0.2}},
		{Name: "rounds-trust-min-only", Kind: KindRounds, Rounds: &RoundsSpec{InitialTrustMin: 0.3}},
		{Name: "rounds-trust-neg", Kind: KindRounds, Rounds: &RoundsSpec{InitialTrustMin: -0.5, InitialTrustMax: 0.5}},
		{Name: "rounds-trust-high", Kind: KindRounds, Rounds: &RoundsSpec{InitialTrustMin: 0.5, InitialTrustMax: 1.5}},
		// One role-bearing attack per node: a spoofer and a drop hook on
		// the same router cannot coexist (NodeSpec installs one of them).
		{Name: "dup-role", Attacks: []AttackSpec{
			{Kind: "linkspoof", Node: 3},
			{Kind: "grayhole", Node: 3, Ratio: 0.5},
		}},
		{Name: "dup-colluder", Attacks: []AttackSpec{
			{Kind: "colluding", Node: 2, Peer: 3},
			{Kind: "blackhole", Node: 3},
		}},
		// logforge needs the evidence plane, a protected peer inside the
		// population, no self-alibi, and one role per node.
		{Name: "lf-noev", Attacks: []AttackSpec{{Kind: "logforge", Node: 2}}},
		{Name: "lf-peer", Evidence: &EvidenceSpec{Enabled: true},
			Attacks: []AttackSpec{{Kind: "logforge", Node: 2, Peer: 99}}},
		{Name: "lf-self", Evidence: &EvidenceSpec{Enabled: true},
			Attacks: []AttackSpec{{Kind: "logforge", Node: 2, Peer: 2}}},
		{Name: "lf-dup", Evidence: &EvidenceSpec{Enabled: true},
			Attacks: []AttackSpec{
				{Kind: "logforge", Node: 2},
				{Kind: "blackhole", Node: 2},
			}},
		// Recommender attacks need the reputation plane, an in-population
		// target, no self-recommendation, a non-negative on-off period,
		// and at most one recommender per node.
		{Name: "bm-norep", Attacks: []AttackSpec{{Kind: "badmouth", Node: 2}}},
		{Name: "bm-peer", Reputation: &ReputationSpec{Enabled: true},
			Attacks: []AttackSpec{{Kind: "badmouth", Node: 2, Peer: 99}}},
		{Name: "bs-self", Reputation: &ReputationSpec{Enabled: true},
			Attacks: []AttackSpec{{Kind: "ballotstuff", Node: 2, Peer: 2}}},
		{Name: "bm-onoff", Reputation: &ReputationSpec{Enabled: true},
			Attacks: []AttackSpec{{Kind: "badmouth", Node: 2, OnOff: Dur(-time.Second)}}},
		{Name: "bm-dup", Reputation: &ReputationSpec{Enabled: true},
			Attacks: []AttackSpec{
				{Kind: "badmouth", Node: 2},
				{Kind: "ballotstuff", Node: 2},
			}},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %q validated despite being invalid", s.Name)
		}
	}
	// mobility.maxSpeed pads the grid medium's cells, so a speed it does
	// not bound fails with an error that names the field.
	for _, tc := range []struct {
		spec  Spec
		field string
	}{
		{Spec{Name: "neg-speed", Mobility: MobilitySpec{Model: "static", MaxSpeed: -150}}, "mobility.maxSpeed"},
		{Spec{Name: "neg-walk", Mobility: MobilitySpec{Model: "walk", MaxSpeed: -1}}, "mobility.maxSpeed"},
		{Spec{Name: "min-over-max", Mobility: MobilitySpec{Model: "waypoint", MinSpeed: 40, MaxSpeed: 2}}, "mobility.minSpeed"},
		{Spec{Name: "min-no-max", Mobility: MobilitySpec{Model: "static", MinSpeed: 1}}, "mobility.minSpeed"},
	} {
		err := tc.spec.Validate()
		if err == nil {
			t.Errorf("spec %q validated despite being invalid", tc.spec.Name)
			continue
		}
		if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("spec %q: error %q does not name %s", tc.spec.Name, err, tc.field)
		}
	}
	if err := (Spec{Name: "ok"}).Validate(); err != nil {
		t.Errorf("minimal spec rejected: %v", err)
	}
	for _, s := range []Spec{
		{Name: "rounds-edges", Kind: KindRounds, Nodes: 4, Liars: 2, Rounds: &RoundsSpec{
			LiarCounts: []int{0, 2}, NonAnswerProb: 1, InitialTrustMin: 0, InitialTrustMax: 1}},
		{Name: "rounds-lossless", Kind: KindRounds, Rounds: &RoundsSpec{NonAnswerProb: -1}},
	} {
		if err := s.Validate(); err != nil {
			t.Errorf("spec %q rejected: %v", s.Name, err)
		}
	}
}

// TestParseRejectsRetiredPlaneKeys pins the narrowed plane specs: each
// key the evidence and reputation planes no longer take, and the radio's
// retired bitRate, fails Parse with an error that names it, instead of
// running with the constant.
func TestParseRejectsRetiredPlaneKeys(t *testing.T) {
	for _, tc := range []struct{ plane, key, value string }{
		{"radio", "bitRate", `1e6`},
		{"evidence", "gossipInterval", `"10s"`},
		{"evidence", "provenWeight", `3`},
		{"reputation", "gossipInterval", `"5s"`},
		{"reputation", "deviation", `0.1`},
		{"reputation", "maxEntries", `4`},
		{"reputation", "freshness", `"30s"`},
		{"reputation", "dishonestAfter", `2`},
	} {
		body := fmt.Sprintf(`%q: %s`, tc.key, tc.value)
		if tc.plane != "radio" {
			body = `"enabled": true, ` + body
		}
		data := fmt.Sprintf(`{"name": "x", "seed": 1, "nodes": 4, "duration": "5s", %q: {%s}}`, tc.plane, body)
		_, err := Parse([]byte(data))
		if err == nil {
			t.Errorf("%s.%s accepted", tc.plane, tc.key)
			continue
		}
		if !strings.Contains(err.Error(), tc.key) {
			t.Errorf("%s.%s: error %q does not name the key", tc.plane, tc.key, err)
		}
	}
	for _, plane := range []string{`"evidence": {"enabled": true}`, `"reputation": {"enabled": true, "noFilter": true}`} {
		if _, err := Parse([]byte(`{"name": "x", "seed": 1, "nodes": 4, "duration": "5s", ` + plane + `}`)); err != nil {
			t.Errorf("%s rejected: %v", plane, err)
		}
	}
}

// TestValidateTrustOverride pins the bounds on a spec's trust override,
// for both spec kinds. A partial JSON object leaves every unnamed
// constant at zero, so {"Gamma": 0.6} — the default Gamma — must fail
// rather than run with Min = Max = 0.
func TestValidateTrustOverride(t *testing.T) {
	const (
		packet = `{"name": "x", "seed": 1, "nodes": 4, "duration": "5s", "trust": %s}`
		rounds = `{"name": "x", "kind": "rounds", "seed": 1, "nodes": 4, "rounds": {"rounds": 5}, "trust": %s}`
	)
	full, err := json.Marshal(trust.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{packet, rounds} {
		if _, err := Parse([]byte(fmt.Sprintf(format, `{"Gamma": 0.6}`))); err == nil {
			t.Errorf("partial trust object accepted: %s", fmt.Sprintf(format, `{"Gamma": 0.6}`))
		}
		if _, err := Parse([]byte(fmt.Sprintf(format, full))); err != nil {
			t.Errorf("default trust params rejected: %v", err)
		}
	}
	for name, mutate := range map[string]func(*trust.Params){
		"Min = Max":           func(p *trust.Params) { p.Min = p.Max },
		"Min > Max":           func(p *trust.Params) { p.Min, p.Max = 1, 0 },
		"Default below Min":   func(p *trust.Params) { p.Default = -0.1 },
		"Default above Max":   func(p *trust.Params) { p.Default = 1.1 },
		"ConfidenceLevel 0":   func(p *trust.Params) { p.ConfidenceLevel = 0 },
		"ConfidenceLevel 1":   func(p *trust.Params) { p.ConfidenceLevel = 1 },
		"ConfidenceLevel NaN": func(p *trust.Params) { p.ConfidenceLevel = math.NaN() },
		"Beta above 1":        func(p *trust.Params) { p.Beta = 1.01 },
		"Beta negative":       func(p *trust.Params) { p.Beta = -0.01 },
		"RelaxBeta above 1":   func(p *trust.Params) { p.RelaxBeta = 1.5 },
		"RelaxBeta negative":  func(p *trust.Params) { p.RelaxBeta = -1 },
		"AlphaPos negative":   func(p *trust.Params) { p.AlphaPos = -0.01 },
		"AlphaNeg negative":   func(p *trust.Params) { p.AlphaNeg = -0.12 },
	} {
		p := trust.DefaultParams()
		mutate(&p)
		for _, kind := range []string{KindPacket, KindRounds} {
			spec := Spec{Name: name, Kind: kind, Trust: &p}
			if err := spec.Validate(); err == nil {
				t.Errorf("%s (%s) validated", name, kind)
			}
		}
	}
	edges := trust.DefaultParams()
	edges.Beta, edges.RelaxBeta, edges.AlphaPos, edges.AlphaNeg, edges.Default = 0, 1, 0, 0, edges.Max
	if err := (Spec{Name: "edges", Trust: &edges}).Validate(); err != nil {
		t.Errorf("closed-interval edges rejected: %v", err)
	}
}

func TestPresetsAllValidAndNamed(t *testing.T) {
	names := Names()
	if len(names) < 8 {
		t.Fatalf("only %d presets registered: %v", len(names), names)
	}
	for _, required := range []string{"baseline", "linkspoof", "blackhole", "grayhole", "wormhole", "colluding"} {
		if _, ok := Get(required); !ok {
			t.Errorf("required preset %q missing", required)
		}
	}
	if len(PacketPresets()) < 6 {
		t.Errorf("fewer than 6 packet presets: %d", len(PacketPresets()))
	}
	if _, err := Resolve("linkspoof"); err != nil {
		t.Errorf("Resolve(linkspoof): %v", err)
	}
	if _, err := Resolve("no-such-preset-or-file"); err == nil {
		t.Error("Resolve accepted garbage")
	}
}

func TestRunDeterministic(t *testing.T) {
	spec, _ := Get("grayhole")
	r1, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Digest() != r2.Digest() {
		t.Errorf("same spec, different digests:\n%s\nvs\n%s", r1.Canonical(), r2.Canonical())
	}
	other := spec
	other.Seed = 2
	r3, err := Run(other)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Digest().Hash == r1.Digest().Hash {
		t.Error("different seeds produced identical digests")
	}
}

func TestDigestGoldenFileFormat(t *testing.T) {
	r := &Result{Name: "x", Seed: 7, Nodes: 2, SimTime: time.Minute}
	d := r.Digest()
	if d.Name != "x" || len(d.Hash) != 16 {
		t.Errorf("digest = %+v", d)
	}
	g := d.GoldenFile()
	if g[:6] != "hash: " {
		t.Errorf("golden file does not lead with the hash:\n%s", g)
	}
}

func TestBuildRejectsRounds(t *testing.T) {
	spec, _ := Get("paper-figures")
	if _, err := Build(spec); err == nil {
		t.Error("Build accepted a rounds spec")
	}
	if _, err := Run(spec); err == nil {
		t.Error("Run accepted a rounds spec")
	}
}

// TestRecommenderCoexistsWithRouterRole pins that a recommender attack
// occupies its own per-node slot: the same node may both claim-spoof (a
// router role) and ballot-stuff (a gossip role).
func TestRecommenderCoexistsWithRouterRole(t *testing.T) {
	s := Spec{
		Name:       "rec-combo",
		Reputation: &ReputationSpec{Enabled: true},
		Attacks: []AttackSpec{
			{Kind: "colluding", Node: 15, Peer: 16},
			{Kind: "ballotstuff", Node: 15, Peer: 16},
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("combined role rejected: %v", err)
	}
}

// TestZeroPauseExpressible is the regression test for the unset-vs-zero
// defaulting bug: an explicit "0s" waypoint pause used to be clobbered
// back to the 5s default, making pause-free motion unexpressible.
func TestZeroPauseExpressible(t *testing.T) {
	parsed, err := Parse([]byte(`{
		"name": "pausefree",
		"nodes": 4,
		"duration": "10s",
		"mobility": {"model": "waypoint", "maxSpeed": 2, "pause": "0s"}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	got := parsed.WithDefaults()
	if got.Mobility.Pause == nil || got.Mobility.Pause.D() != 0 {
		t.Fatalf("explicit zero pause not preserved: %+v", got.Mobility.Pause)
	}
	// Unset still defaults (at the point of use).
	unset := Spec{Name: "d", Mobility: MobilitySpec{Model: "waypoint", MaxSpeed: 2}}.WithDefaults()
	if unset.Mobility.Pause != nil {
		t.Fatalf("unset pause materialized a value: %v", unset.Mobility.Pause)
	}
	if d := durOf(unset.Mobility.Pause, 5*time.Second); d != 5*time.Second {
		t.Fatalf("unset pause resolves to %v, want 5s", d)
	}

	// The two specs must genuinely move differently: a zero-pause walker
	// never dwells, so by the first default pause window it has left the
	// spot a defaulted walker is still sitting on.
	pauseless := parsed
	dwelling := parsed
	dwelling.Mobility.Pause = nil
	mPauseless := pauseless.mobilityFor(2, mobilityProbeStart)
	mDwelling := dwelling.mobilityFor(2, mobilityProbeStart)
	if mPauseless.Position(0) != mDwelling.Position(0) {
		t.Fatal("start positions differ; probe is meaningless")
	}
	if mPauseless.Position(2*time.Second) == mDwelling.Position(2*time.Second) {
		t.Error("zero-pause and defaulted-pause waypoint models moved identically")
	}
}

func TestDeriveSeedStable(t *testing.T) {
	// The derivation must be stable across processes and platforms —
	// recorded seeds in EXPERIMENTS.md depend on it. These golden values
	// pin the hash; changing them is a breaking change to every recorded
	// experiment.
	golden := []struct {
		root         int64
		sweep        string
		point, trial int
		want         int64
	}{
		{1, "x3-ci", 0, 0, -6180441966806563301},
		{42, "x1-mobility", 3, 7, -567676116528905925},
	}
	for _, g := range golden {
		if got := DeriveSeed(g.root, g.sweep, g.point, g.trial); got != g.want {
			t.Errorf("DeriveSeed(%d, %q, %d, %d) = %d, want %d",
				g.root, g.sweep, g.point, g.trial, got, g.want)
		}
	}
}

// TestPresetCopiesShareNothing edits every pointer block and slice of
// resolved presets, then resolves them again: the registry is unchanged,
// through Get and Presets alike.
func TestPresetCopiesShareNothing(t *testing.T) {
	before := map[string]string{}
	for _, s := range Presets() {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		before[s.Name] = string(b)
	}

	spec, _ := Get("paper-figures")
	want := spec.Rounds.Rounds
	spec.Rounds.Rounds = want + 1
	spec.Rounds.LiarCounts[0] = 99
	if again, _ := Get("paper-figures"); again.Rounds.Rounds != want || again.Rounds.LiarCounts[0] == 99 {
		t.Fatalf("editing a resolved paper-figures reached the registry: %+v", *again.Rounds)
	}
	for _, s := range Presets() {
		for i := range s.Positions {
			s.Positions[i].X++
		}
		for i := range s.Attacks {
			s.Attacks[i].Node++
		}
		for _, d := range []*Duration{s.Mobility.Pause, s.Mobility.Epoch} {
			if d != nil {
				*d++
			}
		}
		if s.Trust != nil {
			s.Trust.Gamma++
		}
		if s.Evidence != nil {
			s.Evidence.Enabled = !s.Evidence.Enabled
		}
		if s.Reputation != nil {
			s.Reputation.Enabled = !s.Reputation.Enabled
		}
		if s.Trace != nil {
			s.Trace.Enabled = !s.Trace.Enabled
		}
		if s.Rounds != nil {
			s.Rounds.Rounds++
		}
	}
	for _, s := range Presets() {
		b, _ := json.Marshal(s)
		if got := string(b); got != before[s.Name] {
			t.Errorf("%s changed after its copies were edited:\n got %s\nwant %s", s.Name, got, before[s.Name])
		}
	}
}
