package experiment

import (
	"math"
	"time"

	"repro/internal/scenario"
	"repro/internal/trust"
)

// Full-stack experiments (X1, X2, X5 of DESIGN.md §4): these run the
// packet-level simulation — OLSR, audit logs, signatures, investigations
// over the control plane — rather than the round-based abstraction of
// Figures 1-3.

// X1: mobility impact (the paper's §VII future work: "evaluate the impact
// of mobility on trustworthiness evaluation").

// MobilityPoint is one row of the mobility sweep.
type MobilityPoint struct {
	Speed    float64
	Detected int // runs that convicted the attacker after the attack began
	// FalsePositives counts runs that convicted the (then honest)
	// attacker before the attack — mobility churn mimicking an attack.
	FalsePositives int
	Runs           int
	MeanDelay      time.Duration // over true detections
}

// mobilitySweepID tags X1 task seeds in the DeriveSeed tree.
const mobilitySweepID = "x1-mobility"

// mobilitySpec is the declarative form of one X1 run: 16 nodes in a
// 500 m arena with a 200 m radio range, the victim at node 1 and a
// phantom link spoofer as node 16, pinned beside the victim, dropping
// the investigation traffic it should relay, and attacking from the
// first minute of a 4-minute run. Nodes move by random waypoint between
// speed/2 and speed m/s with 5 s pauses, or stand still at speed 0.
func mobilitySpec(seed int64, speed float64) scenario.Spec {
	mob := scenario.MobilitySpec{}
	if speed > 0 {
		mob = scenario.MobilitySpec{
			Model:    "waypoint",
			MinSpeed: speed / 2,
			MaxSpeed: speed,
			Pause:    scenario.DurPtr(5 * time.Second),
		}
	}
	return scenario.Spec{
		Name:      "fullstack",
		Seed:      seed,
		Nodes:     16,
		ArenaSide: 500,
		Duration:  scenario.Dur(4 * time.Minute),
		Radio:     scenario.RadioSpec{Range: 200},
		Mobility:  mob,
		Attacks: []scenario.AttackSpec{{
			Kind:     "linkspoof",
			Node:     16,
			Mode:     "phantom",
			At:       scenario.Dur(time.Minute),
			Pin:      true,
			DropCtrl: true,
		}},
	}
}

// MobilitySweep measures detection rate, latency and false positives
// across node speeds. It fans runs×len(speeds) packet-level simulations
// onto the pool, deriving every trial's seed from the root seed so
// distinct sweep points never share a random stream. The task grid is
// speeds × trials, flattened point-major, and the per-trial results are
// reduced into per-speed points in index order.
func (r *Runner) MobilitySweep(runs int, speeds []float64) []MobilityPoint {
	if runs <= 0 || len(speeds) == 0 {
		return nil
	}
	spoofers := mapTasks(r.workerCount(), len(speeds)*runs, func(task int) scenario.Suspect {
		point, trial := task/runs, task%runs
		res, err := scenario.Run(mobilitySpec(r.TaskSeed(mobilitySweepID, point, trial), speeds[point]))
		if err != nil {
			panic(err) // mobilitySpec is a valid packet spec
		}
		return res.Suspects[0]
	})

	out := make([]MobilityPoint, 0, len(speeds))
	for pi, speed := range speeds {
		p := MobilityPoint{Speed: speed, Runs: runs}
		var total time.Duration
		for trial := 0; trial < runs; trial++ {
			att := spoofers[pi*runs+trial]
			switch {
			case att.ConvictedAt < 0:
			case att.FalsePositive:
				p.FalsePositives++
			default:
				p.Detected++
				total += att.ConvictedAt - att.AttackAt
			}
		}
		if p.Detected > 0 {
			p.MeanDelay = total / time.Duration(p.Detected)
		}
		out = append(out, p)
	}
	return out
}

// X2: resource consumption (§VII: "the resource consumption that is
// related to the trust system").

// OverheadPoint is one row of the size sweep.
type OverheadPoint struct {
	Nodes        int
	CtrlMessages uint64
	OLSRMessages uint64
	CtrlPerNode  float64
	LogRecords   int
}

// overheadSweepID tags X2 task seeds in the DeriveSeed tree.
const overheadSweepID = "x2-size"

// OverheadSweep measures control-plane and routing overhead versus
// network size. The sizes fan out as independent sweep points, each a
// full packet-level simulation with its own derived seed.
func (r *Runner) OverheadSweep(sizes []int) []OverheadPoint {
	return mapTasks(r.workerCount(), len(sizes), func(i int) OverheadPoint {
		return overheadPoint(r.TaskSeed(overheadSweepID, i, 0), sizes[i])
	})
}

// overheadSpec is the declarative form of one X2 measurement point: a
// phantom spoofer beside the victim on a grid whose pitch stays near
// 110 m regardless of population, so the network stays connected while
// its diameter grows with n.
func overheadSpec(seed int64, n int) scenario.Spec {
	cols := math.Ceil(math.Sqrt(float64(n)))
	return scenario.Spec{
		Name:      "overhead",
		Seed:      seed,
		Nodes:     n,
		ArenaSide: 110 * cols,
		Duration:  scenario.Dur(2 * time.Minute),
		Radio:     scenario.RadioSpec{Range: 200},
		Attacks: []scenario.AttackSpec{{
			Kind: "linkspoof",
			Node: n,
			Mode: "phantom",
			At:   scenario.Dur(30 * time.Second),
			Pin:  true,
		}},
	}
}

// overheadPoint measures one network size for two simulated minutes.
func overheadPoint(seed int64, n int) OverheadPoint {
	res, err := scenario.Run(overheadSpec(seed, n))
	if err != nil {
		panic(err)
	}
	return OverheadPoint{
		Nodes:        n,
		CtrlMessages: res.Ctrl.Sent,
		OLSRMessages: res.Frames.FramesSent - res.Ctrl.Sent,
		CtrlPerNode:  float64(res.Ctrl.Sent) / float64(n),
		LogRecords:   res.LogRecords,
	}
}

// X5: baseline attacks — the §II-B attacks beyond link spoofing, detected
// by their dedicated signatures.

// BaselineResult reports which baseline attacks were flagged.
type BaselineResult struct {
	StormFlagged    bool
	ReplayFlagged   bool
	DropTrustDamage float64 // default trust minus final trust of the dropper
}

// Baselines exercises the storm, replay and black-hole attacks on a
// small line topology and reports signature coverage. It runs the X5
// baseline-attack scenario as one engine task, executed inline and
// seeded directly by the root seed (one point, one trial).
func (r *Runner) Baselines() *BaselineResult {
	spec, ok := scenario.Get("baselines-x5")
	if !ok {
		panic("experiment: baselines-x5 preset not registered")
	}
	spec.Seed = r.RootSeed
	sres, err := scenario.Run(spec)
	if err != nil {
		panic(err)
	}
	res := &BaselineResult{}
	for _, a := range sres.Alerts {
		switch a.Rule {
		case "broadcast-storm":
			res.StormFlagged = true
		case "replay-stale":
			res.ReplayFlagged = true
		}
	}
	for _, s := range sres.Suspects {
		if s.Kind == "blackhole" {
			res.DropTrustDamage = trust.DefaultParams().Default - s.FinalTrust
		}
	}
	return res
}
