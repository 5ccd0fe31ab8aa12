package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"repro/internal/scenario"
	"repro/internal/trace"
)

// eventCounter is a trace.Sink that only counts: the exact work a run
// did, per plane, without the cost of encoding a trace.
type eventCounter struct {
	recvs, helloTx, helloRx, tcTx, tcRx              uint64
	trustUpdates, verdicts, evidence, ingests, seals uint64
	passed, failed                                   float64
	total                                            uint64
}

// Event implements trace.Sink. Kinds are unique across planes.
func (c *eventCounter) Event(e trace.Event) {
	c.total++
	switch e.Kind {
	case trace.KindRecv:
		c.recvs++
	case trace.KindHelloTx:
		c.helloTx++
	case trace.KindHelloRx:
		c.helloRx++
	case trace.KindTCTx:
		c.tcTx++
	case trace.KindTCRx:
		c.tcRx++
	case trace.KindUpdate:
		c.trustUpdates++
	case trace.KindVerdict:
		c.verdicts++
	case trace.KindEvidence:
		c.evidence++
	case trace.KindIngest:
		c.ingests++
		c.passed += e.V0
		c.failed += e.V1
	case trace.KindSeal:
		c.seals++
	}
}

// counts is the work of one op: trace-event tallies plus the scenario
// Result's own counters.
type counts struct {
	events, framesSent, framesDelivered, framesLost  float64
	ctrlSent, ctrlDelivered, records, investigations float64
	helloTx, helloRx, tcTx, tcRx, framesRx           float64
	trustUpdates, verdicts, evidence                 float64
	ingests, passed, failed, seals, traceEvents      float64
}

// add accumulates one traced run.
func (c *counts) add(r *scenario.Result, e *eventCounter) {
	c.events += float64(r.Events)
	c.framesSent += float64(r.Frames.FramesSent)
	c.framesDelivered += float64(r.Frames.FramesDelivered)
	c.framesLost += float64(r.Frames.FramesLost)
	c.ctrlSent += float64(r.Ctrl.Sent)
	c.ctrlDelivered += float64(r.Ctrl.Delivered)
	c.records += float64(r.LogRecords)
	c.investigations += float64(r.Investigations)
	c.helloTx += float64(e.helloTx)
	c.helloRx += float64(e.helloRx)
	c.tcTx += float64(e.tcTx)
	c.tcRx += float64(e.tcRx)
	c.framesRx += float64(e.recvs)
	c.trustUpdates += float64(e.trustUpdates)
	c.verdicts += float64(e.verdicts)
	c.evidence += float64(e.evidence)
	c.ingests += float64(e.ingests)
	c.passed += e.passed
	c.failed += e.failed
	c.seals += float64(e.seals)
	c.traceEvents += float64(e.total)
}

// scale multiplies every count by f (1/n turns n ops' sums into a mean).
func (c *counts) scale(f float64) {
	for _, p := range []*float64{
		&c.events, &c.framesSent, &c.framesDelivered, &c.framesLost, &c.ctrlSent,
		&c.ctrlDelivered, &c.records, &c.investigations, &c.helloTx, &c.helloRx,
		&c.tcTx, &c.tcRx, &c.framesRx, &c.trustUpdates, &c.verdicts, &c.evidence,
		&c.ingests, &c.passed, &c.failed, &c.seals, &c.traceEvents,
	} {
		*p *= f
	}
}

// layerData is what a workload contributes to the traced pass.
type layerData struct {
	counts counts // per op
	// overhead is traced ÷ untraced wall time − 1 over the same runs.
	overhead float64
	// The engine's view of one op: the pool size, the summed wall time of
	// its scenario runs done one at a time, and the longest of them.
	workers      int
	serial, crit float64
	extra        map[string]Value
}

// ratio is a/b, or 0 when b is 0 (the base is always reported beside it).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedPass warms up, runs half a run's ops under the CPU profiler with
// tracing off, then gathers exact work counts from traced re-runs and
// times the replay tier.
func tracedPass(o Options, w workload, inst instance, res *Result) error {
	if err := inst.warm(); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	n := max(1, w.ops(o.Seconds)/2)
	path := filepath.Join(o.Scratch, fmt.Sprintf("manetbench-%d.pprof", os.Getpid()))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	defer os.Remove(path)
	runtime.GC()
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("cpu profile: %w", err)
	}
	u0 := readUsage()
	spans, runErr := inst.run(0, n)
	u1 := readUsage()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	if runErr != nil {
		return runErr
	}
	lat := durations(spans)
	bySec, err := profileLayers(path)
	if err != nil {
		return err
	}
	ld, err := inst.layers(n, lat)
	if err != nil {
		return err
	}
	rp, err := replayTier(w, o.Seed)
	if err != nil {
		return fmt.Errorf("replay tier: %w", err)
	}

	res.Ops = n
	res.Extra = ld.extra
	m := map[string]Value{}
	put := func(name string, v float64, samples int) {
		meta, _ := metricByName(name)
		m[name] = Value{v, meta.Unit, samples}
	}
	cpu := u1.cpu.Seconds() - u0.cpu.Seconds()
	var profiled float64
	for _, s := range bySec {
		profiled += s
	}
	for _, l := range Layers {
		put(l+".cpu_pct", 100*ratio(bySec[l], profiled), 0)
	}
	cpuPerOp := cpu / float64(n)
	nsOf := func(layer string, per float64) float64 {
		return ratio(ratio(bySec[layer], profiled)*cpuPerOp*1e9, per)
	}
	c := ld.counts
	put("profile.cpu_coverage", ratio(profiled, cpu), 0)
	put("profile.cpu_s_per_op", cpuPerOp, n)
	put("runtime.gc_cpu_pct", 100*ratio(u1.gcCPUSecond-u0.gcCPUSecond, cpu), 0)
	put("sim.events", c.events, 0)
	put("sim.ns_per_event", ratio(cpuPerOp*1e9, c.events), n)
	put("radio.frames_sent", c.framesSent, 0)
	put("radio.frames_delivered", c.framesDelivered, 0)
	put("radio.delivery_ratio", ratio(c.framesDelivered, c.framesDelivered+c.framesLost), 0)
	put("radio.ns_per_delivery", nsOf("radio", c.framesDelivered), n)
	put("olsr.hello_rx", c.helloRx, 0)
	put("olsr.tc_rx", c.tcRx, 0)
	put("olsr.hello_tx", c.helloTx, 0)
	put("olsr.tc_tx", c.tcTx, 0)
	put("olsr.ns_per_rx", nsOf("olsr", c.helloRx+c.tcRx), n)
	put("core.frames_rx", c.framesRx, 0)
	put("core.ctrl_sent", c.ctrlSent, 0)
	put("core.ctrl_delivery_ratio", ratio(c.ctrlDelivered, c.ctrlSent), 0)
	put("detect.investigations", c.investigations, 0)
	put("detect.verdicts", c.verdicts, 0)
	put("detect.evidence", c.evidence, 0)
	put("trust.updates", c.trustUpdates, 0)
	put("reputation.ingests", c.ingests, 0)
	put("reputation.accept_ratio", ratio(c.passed, c.passed+c.failed), 0)
	put("auditlog.records", c.records, 0)
	put("auditlog.seals", c.seals, 0)
	put("auditlog.ns_per_record", nsOf("auditlog", c.records), n)
	put("alloc.per_event", ratio(float64(u1.allocs-u0.allocs)/float64(n), c.events), n)
	put("trace.events", c.traceEvents, 0)
	put("trace.overhead_frac", ld.overhead, 0)

	opS := Median(lat)
	bound := max(ld.serial/float64(ld.workers), ld.crit)
	put("experiment.workers", float64(ld.workers), 0)
	put("experiment.serial_s", ld.serial, 0)
	put("experiment.critical_path_s", ld.crit, 0)
	put("experiment.bound_s", bound, 0)
	put("experiment.speedup", ld.serial/opS, len(lat))
	put("experiment.efficiency", bound/opS, len(lat))

	for _, op := range ReplayOps {
		r := rp[op]
		put(op+"_ns", r.ns, r.samples)
		put(op+"_allocs", r.allocs, 0)
	}
	res.Metrics = m
	return nil
}
