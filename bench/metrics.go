package bench

// Metric describes one number a run reports. Every workload reports the
// same set: a run with tracing off reports EndToEnd, a traced run
// reports PerLayer. BENCHMARK.json mirrors both lists (the consistency
// test holds them equal).
type Metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
}

// An op is the unit of work a workload repeats: one scenario run
// (linkspoof, linkspoof-200), one pass over the golden matrix (matrix),
// or one campaign from submit to its terminal watch line (serve).

// EndToEnd lists the metrics a user of the system sees, measured with
// tracing off. None of them can read 0. The timing and RSS bounds are the
// widest allowed because the reference host, shared with other tenants,
// moves them by 10-15% between runs of the same commit (README.md).
var EndToEnd = []Metric{
	{"setup_s", "s", "lower", 0.25},
	{"op_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"allocs_per_op", "count", "lower", 0.08},
	{"alloc_mb_per_op", "MB", "lower", 0.08},
	{"max_rss_mb", "MB", "lower", 0.25},
}

// Layers are the module names a CPU sample is attributed to (profile.go).
// addr, geo and metrics are utilities whose samples go to their caller;
// signature and logevent belong to detect; runtime holds every sample
// with no repro frame; loadgen is the benchmark's own code.
var Layers = []string{
	"sim", "radio", "wire", "olsr", "core", "detect", "trust", "reputation",
	"auditlog", "mobility", "attack", "scenario", "experiment", "campaign",
	"manetd", "runtime", "loadgen",
}

// ReplayOps are the replay-tier microbenchmarks (replay.go); each reports
// <name>_ns and <name>_allocs per item.
var ReplayOps = []string{
	"sim.schedule", "radio.send", "wire.decode", "wire.encode", "olsr.ingest",
	"trust.update", "trust.detect", "auditlog.append", "auditlog.sealed_append",
	"trace.emit",
}

// PerLayer lists the metrics of single layers, from a traced run.
var PerLayer = perLayer()

func perLayer() []Metric {
	var out []Metric
	for _, l := range Layers {
		out = append(out, Metric{Name: l + ".cpu_pct", Unit: "%", Better: "lower"})
	}
	out = append(out,
		Metric{"profile.cpu_coverage", "ratio", "higher", 0},
		Metric{"profile.cpu_s_per_op", "s", "lower", 0},
		Metric{"runtime.gc_cpu_pct", "%", "lower", 0},

		Metric{"sim.events", "count", "lower", 0},
		Metric{"sim.ns_per_event", "ns", "lower", 0},
		Metric{"radio.frames_sent", "count", "lower", 0},
		Metric{"radio.frames_delivered", "count", "lower", 0},
		Metric{"radio.delivery_ratio", "ratio", "higher", 0},
		Metric{"radio.ns_per_delivery", "ns", "lower", 0},
		Metric{"olsr.hello_rx", "count", "lower", 0},
		Metric{"olsr.tc_rx", "count", "lower", 0},
		Metric{"olsr.hello_tx", "count", "lower", 0},
		Metric{"olsr.tc_tx", "count", "lower", 0},
		Metric{"olsr.ns_per_rx", "ns", "lower", 0},
		Metric{"core.frames_rx", "count", "lower", 0},
		Metric{"core.ctrl_sent", "count", "lower", 0},
		Metric{"core.ctrl_delivery_ratio", "ratio", "higher", 0},
		Metric{"detect.investigations", "count", "lower", 0},
		Metric{"detect.verdicts", "count", "lower", 0},
		Metric{"detect.evidence", "count", "lower", 0},
		Metric{"trust.updates", "count", "lower", 0},
		Metric{"reputation.ingests", "count", "lower", 0},
		Metric{"reputation.accept_ratio", "ratio", "higher", 0},
		Metric{"auditlog.records", "count", "lower", 0},
		Metric{"auditlog.seals", "count", "lower", 0},
		Metric{"auditlog.ns_per_record", "ns", "lower", 0},
		Metric{"alloc.per_event", "count", "lower", 0},
		Metric{"trace.events", "count", "lower", 0},
		Metric{"trace.overhead_frac", "ratio", "lower", 0},

		Metric{"experiment.workers", "count", "higher", 0},
		Metric{"experiment.serial_s", "s", "lower", 0},
		Metric{"experiment.critical_path_s", "s", "lower", 0},
		Metric{"experiment.bound_s", "s", "lower", 0},
		Metric{"experiment.speedup", "x", "higher", 0},
		Metric{"experiment.efficiency", "ratio", "higher", 0},
	)
	for _, op := range ReplayOps {
		out = append(out,
			Metric{Name: op + "_ns", Unit: "ns", Better: "lower"},
			Metric{Name: op + "_allocs", Unit: "count", Better: "lower"})
	}
	return out
}

// metricByName finds a registered metric in either list.
func metricByName(name string) (Metric, bool) {
	for _, list := range [][]Metric{EndToEnd, PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return Metric{}, false
}
