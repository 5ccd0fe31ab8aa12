package manetd

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiment"
	"repro/internal/scenario"
)

// tinySpecJSON is the on-the-wire scenario every lifecycle test
// submits: the PR 2 JSON format, straight through scenario.Parse.
const tinySpecJSON = `{"name": "tiny", "seed": %d, "nodes": 4, "duration": "5s"}`

// newTestServer boots a Server behind httptest and tears both down.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// doJSON issues a request and decodes the JSON response into out.
func doJSON(t *testing.T, client *http.Client, method, url, body string, out any) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatalf("building %s %s: %v", method, url, err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	return resp
}

// pollDone polls the campaign over HTTP until it is terminal.
func pollDone(t *testing.T, client *http.Client, url string) *campaign.Campaign {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var c campaign.Campaign
		resp := doJSON(t, client, http.MethodGet, url, "", &c)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
		}
		if c.Terminal() {
			return &c
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("campaign at %s never finished", url)
	return nil
}

// TestLifecycleSubmitPollStream drives the happy path end to end:
// submit, poll to done, and replay the same campaign through the NDJSON
// watch stream.
func TestLifecycleSubmitPollStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	client := ts.Client()

	var c campaign.Campaign
	body := fmt.Sprintf(`{"spec": `+tinySpecJSON+`, "trials": 2}`, 11)
	resp := doJSON(t, client, http.MethodPost, ts.URL+"/v1/campaigns", body, &c)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	loc := resp.Header.Get("Location")
	if loc != "/v1/campaigns/"+c.ID {
		t.Errorf("Location = %q, want /v1/campaigns/%s", loc, c.ID)
	}
	if len(c.Runs) != 2 || c.State != campaign.StateQueued {
		t.Fatalf("submitted: %d runs, state %q", len(c.Runs), c.State)
	}

	fin := pollDone(t, client, ts.URL+loc)
	if fin.State != campaign.StateDone {
		t.Fatalf("campaign finished %q: %s", fin.State, fin.Error)
	}
	for i, r := range fin.Runs {
		if r.State != campaign.StateDone || r.Digest == "" {
			t.Errorf("run %d: state %q digest %q", i, r.State, r.Digest)
		}
	}

	// The watch stream on a finished campaign emits exactly one terminal
	// snapshot and closes.
	streamResp, err := client.Get(ts.URL + loc + "?watch=1")
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	defer streamResp.Body.Close()
	if ct := streamResp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("watch Content-Type = %q", ct)
	}
	lines := 0
	sc := bufio.NewScanner(streamResp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var last campaign.Campaign
	for sc.Scan() {
		lines++
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("watch line %d: %v", lines, err)
		}
	}
	if lines != 1 || !last.Terminal() {
		t.Errorf("watch replay: %d lines, last state %q", lines, last.State)
	}

	// The list surface sees it under the default tenant.
	var listing struct {
		Campaigns []*campaign.Campaign `json:"campaigns"`
	}
	doJSON(t, client, http.MethodGet, ts.URL+"/v1/campaigns", "", &listing)
	if len(listing.Campaigns) != 1 || listing.Campaigns[0].ID != c.ID {
		t.Errorf("list: %d campaigns", len(listing.Campaigns))
	}
}

// TestWatchStreamsWhileRunning subscribes before completion and reads
// updates until the terminal snapshot arrives over the wire.
func TestWatchStreamsWhileRunning(t *testing.T) {
	_, ts := newTestServer(t, Config{WatchHeartbeat: 10 * time.Millisecond})
	client := ts.Client()

	var c campaign.Campaign
	body := fmt.Sprintf(`{"spec": `+tinySpecJSON+`, "trials": 8}`, 13)
	if resp := doJSON(t, client, http.MethodPost, ts.URL+"/v1/campaigns", body, &c); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/campaigns/"+c.ID, nil)
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var last campaign.Campaign
	lines := 0
	for sc.Scan() {
		lines++
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("watch line %d: %v", lines, err)
		}
	}
	if !last.Terminal() || last.State != campaign.StateDone {
		t.Fatalf("stream ended on state %q after %d lines", last.State, lines)
	}
	if lines < 1 {
		t.Error("stream delivered no snapshots")
	}
}

// TestServiceDigestsMatchEngine is the acceptance-criteria linchpin: a
// campaign submitted over HTTP yields digests byte-identical to the
// same spec and trial count run directly on the engine.
func TestServiceDigestsMatchEngine(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	client := ts.Client()

	const seed, trials = 1234, 3
	spec := scenario.Spec{Name: "tiny", Seed: seed, Nodes: 4, Duration: scenario.Dur(5 * time.Second)}
	direct, err := experiment.NewRunner(seed, 8).ScenarioTrials(context.Background(), spec, trials, "")
	if err != nil {
		t.Fatalf("engine: %v", err)
	}

	var c campaign.Campaign
	body := fmt.Sprintf(`{"spec": `+tinySpecJSON+`, "trials": %d}`, seed, trials)
	if resp := doJSON(t, client, http.MethodPost, ts.URL+"/v1/campaigns", body, &c); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	fin := pollDone(t, client, ts.URL+"/v1/campaigns/"+c.ID)
	if fin.State != campaign.StateDone {
		t.Fatalf("campaign finished %q: %s", fin.State, fin.Error)
	}
	for i := range fin.Runs {
		d := direct[i].Digest()
		if fin.Runs[i].Digest != d.Hash || fin.Runs[i].Canonical != d.Canonical {
			t.Errorf("run %d: service digest %s diverges from engine %s", i, fin.Runs[i].Digest, d.Hash)
		}
	}
}

// TestSubmitValidation covers the 400 surface: malformed JSON, unknown
// envelope fields, spec validation failures (the Validate error must
// reach the client), unknown presets, and empty submissions.
func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	client := ts.Client()

	cases := []struct {
		name, body, wantErr string
	}{
		{"malformed", `{"spec": nope}`, "decoding"},
		{"unknown envelope field", `{"specc": {}}`, "unknown field"},
		{"unknown spec field", `{"spec": {"name": "x", "seed": 1, "nodes": 4, "duration": "5s", "warp": 9}}`, "warp"},
		{"invalid spec", `{"spec": {"name": "x", "seed": 1, "nodes": 4, "duration": "5s", "mobility": {"model": "teleport"}}}`, "teleport"},
		{"retired plane key", `{"spec": {"name": "x", "seed": 1, "nodes": 4, "duration": "5s", "reputation": {"enabled": true, "deviation": 0.1}}}`, "deviation"},
		{"bad version", `{"spec": {"name": "x", "version": 99, "seed": 1, "nodes": 4, "duration": "5s"}}`, "version"},
		{"unknown preset", `{"presets": ["no-such-preset"]}`, "unknown preset"},
		{"empty", `{}`, "no scenario"},
	}
	for _, tc := range cases {
		var body struct {
			Error string `json:"error"`
		}
		resp := doJSON(t, client, http.MethodPost, ts.URL+"/v1/campaigns", tc.body, &body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", tc.name, resp.StatusCode)
		}
		if !strings.Contains(body.Error, tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, body.Error, tc.wantErr)
		}
	}
}

// TestSubmitBodyCap pins the request-size bound: a body of exactly
// maxSubmitBytes is decoded and queued, one byte more is refused with 413
// before any spec is parsed.
func TestSubmitBodyCap(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	client := ts.Client()
	body := func(size int) string {
		head := fmt.Sprintf(`{"spec": `+tinySpecJSON, 5)
		return head + strings.Repeat(" ", size-len(head)-1) + "}"
	}

	atCap := body(maxSubmitBytes)
	if len(atCap) != maxSubmitBytes {
		t.Fatalf("at-cap body is %d bytes", len(atCap))
	}
	var c campaign.Campaign
	if resp := doJSON(t, client, http.MethodPost, ts.URL+"/v1/campaigns", atCap, &c); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("at-cap body: HTTP %d, want 202", resp.StatusCode)
	}
	if fin := pollDone(t, client, ts.URL+"/v1/campaigns/"+c.ID); fin.State != campaign.StateDone {
		t.Fatalf("at-cap campaign finished %q: %s", fin.State, fin.Error)
	}

	var e struct {
		Error string `json:"error"`
	}
	resp := doJSON(t, client, http.MethodPost, ts.URL+"/v1/campaigns", body(maxSubmitBytes+1), &e)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-cap body: HTTP %d, want 413", resp.StatusCode)
	}
	if !strings.Contains(e.Error, "exceeds") {
		t.Errorf("over-cap error %q does not name the cap", e.Error)
	}
}

// TestQuotaReturns429 exhausts a one-campaign quota and checks both the
// HTTP mapping and the metrics counter.
func TestQuotaReturns429(t *testing.T) {
	_, ts := newTestServer(t, Config{Campaign: campaign.Config{
		Quota:           campaign.Quota{MaxActive: 1},
		CampaignWorkers: 1,
	}})
	client := ts.Client()

	// A slow campaign holds the quota slot while we probe the 429 path.
	slow := `{"spec": {"name": "slow", "seed": 1, "nodes": 16, "duration": "4m",
	          "mobility": {"model": "waypoint", "maxSpeed": 2}}}`
	var c campaign.Campaign
	if resp := doJSON(t, client, http.MethodPost, ts.URL+"/v1/campaigns", slow, &c); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d", resp.StatusCode)
	}
	body := fmt.Sprintf(`{"spec": `+tinySpecJSON+`}`, 2)
	if resp := doJSON(t, client, http.MethodPost, ts.URL+"/v1/campaigns", body, nil); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: HTTP %d, want 429", resp.StatusCode)
	}

	// Another tenant has its own quota window.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/campaigns", strings.NewReader(body))
	req.Header.Set("X-Tenant", "other")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("other-tenant submit: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("other-tenant submit: HTTP %d, want 202", resp.StatusCode)
	}

	metrics := scrape(t, client, ts.URL)
	if !strings.Contains(metrics, "manetd_rejected_quota_total 1") {
		t.Errorf("metrics missing the quota rejection:\n%s", metrics)
	}
	pollDone(t, client, ts.URL+"/v1/campaigns/"+c.ID)
}

// TestCancelOverHTTP cancels a running campaign with DELETE and checks
// the conflict and not-found mappings.
func TestCancelOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	client := ts.Client()

	slow := `{"spec": {"name": "slow", "seed": 1, "nodes": 16, "duration": "4m",
	          "mobility": {"model": "waypoint", "maxSpeed": 2}}}`
	var c campaign.Campaign
	if resp := doJSON(t, client, http.MethodPost, ts.URL+"/v1/campaigns", slow, &c); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	var canceled campaign.Campaign
	if resp := doJSON(t, client, http.MethodDelete, ts.URL+"/v1/campaigns/"+c.ID, "", &canceled); resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: HTTP %d", resp.StatusCode)
	}
	fin := pollDone(t, client, ts.URL+"/v1/campaigns/"+c.ID)
	if fin.State != campaign.StateCanceled {
		t.Fatalf("after cancel: state %q", fin.State)
	}
	if resp := doJSON(t, client, http.MethodDelete, ts.URL+"/v1/campaigns/"+c.ID, "", nil); resp.StatusCode != http.StatusConflict {
		t.Errorf("re-cancel: HTTP %d, want 409", resp.StatusCode)
	}
	if resp := doJSON(t, client, http.MethodDelete, ts.URL+"/v1/campaigns/c-999999", "", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("cancel unknown: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestPresetSubmission runs a named preset through the service — the
// same spec the golden corpus pins.
func TestPresetSubmission(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	client := ts.Client()

	var c campaign.Campaign
	if resp := doJSON(t, client, http.MethodPost, ts.URL+"/v1/campaigns", `{"presets": ["baseline"]}`, &c); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("preset submit: HTTP %d", resp.StatusCode)
	}
	fin := pollDone(t, client, ts.URL+"/v1/campaigns/"+c.ID)
	if fin.State != campaign.StateDone || fin.Runs[0].Digest == "" {
		t.Fatalf("preset campaign: state %q digest %q", fin.State, fin.Runs[0].Digest)
	}

	spec, _ := scenario.Get("baseline")
	direct, err := scenario.Run(spec)
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	if want := direct.Digest().Hash; fin.Runs[0].Digest != want {
		t.Errorf("preset digest %s, direct run %s", fin.Runs[0].Digest, want)
	}
}

// TestHealthzAndMetrics checks the operational endpoints end to end,
// including the draining flip.
func TestHealthzAndMetrics(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	client := ts.Client()

	if resp := doJSON(t, client, http.MethodGet, ts.URL+"/healthz", "", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", resp.StatusCode)
	}

	var c campaign.Campaign
	body := fmt.Sprintf(`{"spec": `+tinySpecJSON+`, "trials": 2}`, 21)
	doJSON(t, client, http.MethodPost, ts.URL+"/v1/campaigns", body, &c)
	pollDone(t, client, ts.URL+"/v1/campaigns/"+c.ID)

	m := scrape(t, client, ts.URL)
	for _, want := range []string{
		"manetd_campaigns_submitted_total 1",
		"manetd_campaigns_completed_total 1",
		"manetd_runs_total 2",
		"manetd_run_latency_seconds_bucket{le=\"+Inf\"} 2",
		"manetd_run_latency_seconds_count 2",
		"manetd_run_allocs",
		"manetd_queue_depth 0",
		"manetd_draining 0",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q:\n%s", want, m)
		}
	}

	// Draining flips healthz to 503 and the gauge to 1.
	ctx, cancel := contextWithTimeout(t)
	defer cancel()
	if err := srv.Manager().Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if resp := doJSON(t, client, http.MethodGet, ts.URL+"/healthz", "", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: HTTP %d, want 503", resp.StatusCode)
	}
	if m := scrape(t, client, ts.URL); !strings.Contains(m, "manetd_draining 1") {
		t.Error("metrics missing manetd_draining 1 after drain")
	}
	if resp := doJSON(t, client, http.MethodPost, ts.URL+"/v1/campaigns", body, nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: HTTP %d, want 503", resp.StatusCode)
	}
}

// TestNoGoroutineLeak runs a small burst of campaigns with live watch
// streams and checks the goroutine count settles back after shutdown.
func TestNoGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()

	srv := New(Config{WatchHeartbeat: 5 * time.Millisecond})
	ts := httptest.NewServer(srv)
	client := ts.Client()
	for i := 0; i < 8; i++ {
		var c campaign.Campaign
		body := fmt.Sprintf(`{"spec": `+tinySpecJSON+`, "trials": 2}`, 100+i)
		if resp := doJSON(t, client, http.MethodPost, ts.URL+"/v1/campaigns", body, &c); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d", i, resp.StatusCode)
		}
		// Watch streams must unwind with their campaigns.
		resp, err := client.Get(ts.URL + "/v1/campaigns/" + c.ID + "?watch=1")
		if err != nil {
			t.Fatalf("watch %d: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	ts.Close()
	srv.Close()

	const slack = 8
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > baseline+slack && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > baseline+slack {
		t.Errorf("goroutines: %d live after shutdown, baseline %d", n, baseline)
	}
}

// contextWithTimeout bounds a drain in test time.
func contextWithTimeout(t *testing.T) (context.Context, context.CancelFunc) {
	t.Helper()
	return context.WithTimeout(context.Background(), 30*time.Second)
}

// scrape fetches /metrics as text.
func scrape(t *testing.T, client *http.Client, base string) string {
	t.Helper()
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics Content-Type = %q", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading /metrics: %v", err)
	}
	return string(b)
}

// TestSubmitRunCap pins the campaign-size bound: a submission that
// expands to one run over campaign.MaxRuns is refused with 400 before
// any run record is allocated, and one at the cap is accepted.
func TestSubmitRunCap(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	client := ts.Client()

	var e struct {
		Error string `json:"error"`
	}
	over := fmt.Sprintf(`{"spec": `+tinySpecJSON+`, "trials": %d}`, 1, campaign.MaxRuns+1)
	resp := doJSON(t, client, http.MethodPost, ts.URL+"/v1/campaigns", over, &e)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-cap campaign: HTTP %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(e.Error, "too many runs") {
		t.Errorf("over-cap error %q does not name the cap", e.Error)
	}

	// Two specs at half the cap each: exactly MaxRuns runs.
	atCap := fmt.Sprintf(`{"specs": [`+tinySpecJSON+`, `+tinySpecJSON+`], "trials": %d}`, 1, 2, campaign.MaxRuns/2)
	var c campaign.Campaign
	if resp := doJSON(t, client, http.MethodPost, ts.URL+"/v1/campaigns", atCap, &c); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("at-cap campaign: HTTP %d, want 202", resp.StatusCode)
	}
	if len(c.Runs) != campaign.MaxRuns {
		t.Errorf("at-cap campaign has %d runs, want %d", len(c.Runs), campaign.MaxRuns)
	}
	doJSON(t, client, http.MethodDelete, ts.URL+"/v1/campaigns/"+c.ID, "", nil)
	pollDone(t, client, ts.URL+"/v1/campaigns/"+c.ID)
}
