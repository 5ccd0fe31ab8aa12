package manetd

import (
	"fmt"
	"net/http"
	"strings"

	"repro/internal/campaign"
)

// handleMetrics implements GET /metrics in the Prometheus text
// exposition format, hand-rolled — the repo takes no dependencies, and
// the surface is small: queue/running gauges, lifecycle counters, the
// run-latency histogram, and the allocs-per-run gauge (campaign.Run.Allocs
// for the most recently finished run).
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := s.mgr.Stats()
	var b strings.Builder

	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}

	gauge("manetd_queue_depth", "Campaigns waiting for an executor.", float64(st.QueueDepth))
	gauge("manetd_campaigns_running", "Campaigns currently executing.", float64(st.Running))
	boolGauge := 0.0
	if st.Draining {
		boolGauge = 1
	}
	gauge("manetd_draining", "1 once the service stopped accepting work.", boolGauge)

	counter("manetd_campaigns_submitted_total", "Campaigns accepted for execution.", st.Submitted)
	counter("manetd_campaigns_completed_total", "Campaigns that finished with every run done.", st.Completed)
	counter("manetd_campaigns_failed_total", "Campaigns with at least one failed run.", st.Failed)
	counter("manetd_campaigns_canceled_total", "Campaigns canceled before completion.", st.Canceled)
	counter("manetd_rejected_rate_limited_total", "Submissions rejected by the tenant token bucket.", st.RateLimited)
	counter("manetd_rejected_quota_total", "Submissions rejected by the tenant concurrency quota.", st.QuotaRejected)
	counter("manetd_runs_total", "Finished scenario runs across all campaigns.", st.Runs)
	counter("manetd_traced_runs_total", "Finished runs that carried the run-trace plane.", st.TracedRuns)
	counter("manetd_trace_events_total", "Run-trace events emitted across all traced runs.", st.TraceEvents)

	writeLatency(&b, st.RunLatency)

	gauge("manetd_run_allocs",
		"Mallocs of the most recently finished run (runtime.MemStats; exact when runs are serial).",
		float64(st.LastRunAllocs))

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}

// writeLatency renders the run-latency histogram with cumulative
// buckets, as the exposition format requires.
func writeLatency(b *strings.Builder, h campaign.HistogramSnapshot) {
	const name = "manetd_run_latency_seconds"
	fmt.Fprintf(b, "# HELP %s Wall-clock cost of one scenario run.\n# TYPE %s histogram\n", name, name)
	cum := uint64(0)
	for i, bound := range h.Bounds {
		cum += h.Counts[i]
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", name, trimFloat(bound), cum)
	}
	cum += h.Counts[len(h.Bounds)]
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(b, "%s_sum %g\n", name, h.Sum)
	fmt.Fprintf(b, "%s_count %d\n", name, h.Count)
}

// trimFloat renders a bucket bound the way Prometheus clients expect
// ("0.005", "1", "120").
func trimFloat(f float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.4f", f), "0"), ".")
}
