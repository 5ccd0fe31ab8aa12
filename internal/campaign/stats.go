package campaign

import "time"

// numBounds is the finite bucket count of the run-latency histogram.
const numBounds = 16

// latencyBounds are the run-latency histogram bucket upper bounds in
// seconds — exponential from 1ms (a tiny smoke spec) to 120s (storm-500
// territory), with +Inf implied.
var latencyBounds = [numBounds]float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// histogram is a fixed-bucket latency histogram — enough for a
// Prometheus-style exposition without a dependency. Manager.mu guards
// it.
type histogram struct {
	counts [numBounds + 1]uint64 // one per bound, plus +Inf
	sum    time.Duration
	count  uint64
}

// observe records one duration.
func (h *histogram) observe(d time.Duration) {
	s := d.Seconds()
	i := 0
	for i < numBounds && s > latencyBounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += d
	h.count++
}

// HistogramSnapshot is a point-in-time copy of the run-latency
// histogram. Counts are per-bucket (not cumulative); Bounds[i] is the
// inclusive upper bound of Counts[i], and Counts[len(Bounds)] is the
// +Inf bucket.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64
	Sum    float64 // seconds
	Count  uint64
}

// snapshot copies the histogram.
func (h *histogram) snapshot() HistogramSnapshot {
	return HistogramSnapshot{
		Bounds: latencyBounds[:],
		Counts: append([]uint64(nil), h.counts[:]...),
		Sum:    h.sum.Seconds(),
		Count:  h.count,
	}
}

// Stats is a point-in-time view of the manager, shaped for the /metrics
// exporter.
type Stats struct {
	// QueueDepth is the number of campaigns waiting for an executor;
	// Running the number currently executing.
	QueueDepth int
	Running    int
	// Campaign-level lifecycle counters.
	Submitted uint64
	Completed uint64
	Failed    uint64
	Canceled  uint64
	// Rejection counters (already mapped to 429 by the HTTP layer).
	RateLimited   uint64
	QuotaRejected uint64
	// Runs counts finished scenario runs; RunLatency distributes their
	// wall-clock cost.
	Runs       uint64
	RunLatency HistogramSnapshot
	// LastRunAllocs is Run.Allocs of the most recently finished run.
	LastRunAllocs uint64
	// TracedRuns counts finished runs that carried the run-trace plane;
	// TraceEvents sums the events they emitted.
	TracedRuns  uint64
	TraceEvents uint64
	// Draining reports that the manager has stopped accepting work.
	Draining bool
}
