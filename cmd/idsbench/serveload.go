package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/manetd"
)

// serveLoadSpec is the tiny packet scenario every load campaign runs: 4
// static nodes for 5 simulated seconds, ~62 events, well under a
// millisecond of wall clock — small enough that a thousand of them
// stress the service plumbing (queue, quotas, snapshots, watch fan-out)
// rather than the simulator.
const serveLoadSpec = `{"name": "serve-load", "seed": %d, "nodes": 4, "duration": "5s", "attacks": []}`

// runServeLoad is the idsbench -serve-load harness: it boots an
// in-process manetd behind a real HTTP listener, fans campaigns out
// across tenants whose concurrency quota exactly fits their share, and
// then holds the service to its own invariants — every campaign done,
// zero quota or rate rejections, every digest byte-identical, and the
// goroutine count back at baseline after drain.
func runServeLoad(w io.Writer, campaigns, tenants int, seed int64) error {
	if campaigns < 1 || tenants < 1 {
		return fmt.Errorf("-campaigns (%d) and -tenants (%d) must be positive", campaigns, tenants)
	}
	if tenants > campaigns {
		tenants = campaigns
	}
	perTenant := (campaigns + tenants - 1) / tenants
	baseline := runtime.NumGoroutine()

	srv := manetd.New(manetd.Config{Campaign: campaign.Config{
		Quota: campaign.Quota{MaxActive: perTenant},
	}})
	ts := httptest.NewServer(srv)
	client := ts.Client()

	fmt.Fprintf(w, "serve-load: %d campaigns across %d tenants (quota %d active/tenant), spec seed %d\n",
		campaigns, tenants, perTenant, seed)
	start := time.Now()

	// Submit every campaign concurrently — one goroutine per tenant keeps
	// each tenant's submissions inside its own quota window while tenants
	// contend with each other on the wire.
	body := fmt.Sprintf(`{"spec": `+serveLoadSpec+`}`, seed)
	ids := make([][]string, tenants)
	errs := make([]error, tenants)
	var wg sync.WaitGroup
	for t := 0; t < tenants; t++ {
		share := perTenant
		if rem := campaigns - t*perTenant; rem < share {
			share = rem
		}
		if share <= 0 {
			continue
		}
		wg.Add(1)
		go func(t, share int) {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant-%02d", t)
			for k := 0; k < share; k++ {
				id, err := submitOne(client, ts.URL, tenant, body)
				if err != nil {
					errs[t] = fmt.Errorf("%s submit %d: %w", tenant, k, err)
					return
				}
				ids[t] = append(ids[t], id)
			}
		}(t, share)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			ts.Close()
			srv.Close()
			return err
		}
	}

	// Poll every campaign to a terminal state over the same HTTP surface
	// a real client would use, collecting digests as they land.
	digests := make(map[string]int)
	done := 0
	for t := range ids {
		for _, id := range ids[t] {
			c, err := pollDone(client, ts.URL, id)
			if err != nil {
				ts.Close()
				srv.Close()
				return err
			}
			if c.State != campaign.StateDone {
				ts.Close()
				srv.Close()
				return fmt.Errorf("campaign %s finished %q (error %q), want done", id, c.State, c.Error)
			}
			for _, r := range c.Runs {
				digests[r.Digest]++
			}
			done++
		}
	}
	elapsed := time.Since(start)

	st := srv.Manager().Stats()
	ts.Close()
	srv.Close()

	fmt.Fprintf(w, "serve-load: %d campaigns done in %s (%.0f/s)\n",
		done, elapsed.Round(time.Millisecond), float64(done)/elapsed.Seconds())
	if st.RateLimited != 0 || st.QuotaRejected != 0 {
		return fmt.Errorf("quota starvation: %d rate-limited, %d quota-rejected submissions (want 0)",
			st.RateLimited, st.QuotaRejected)
	}
	fmt.Fprintf(w, "serve-load: rejections rate=%d quota=%d\n", st.RateLimited, st.QuotaRejected)
	if len(digests) != 1 {
		return fmt.Errorf("determinism breach: %d distinct digests across identical runs: %v",
			len(digests), digestKeys(digests))
	}
	for d, n := range digests {
		fmt.Fprintf(w, "serve-load: %d runs, all digest %s\n", n, d)
	}

	// Goroutine-leak check (no goleak in a no-deps repo): after close,
	// the count must settle back to the pre-boot baseline plus scheduler
	// slack. HTTP keep-alive and runtime goroutines wind down lazily, so
	// give them a bounded settle window.
	const slack = 10
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > baseline+slack && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > baseline+slack {
		return fmt.Errorf("goroutine leak: %d live after shutdown, baseline %d (+%d slack)", n, baseline, slack)
	}
	fmt.Fprintf(w, "serve-load: goroutines %d -> %d (baseline %d)\n", baseline, n, baseline)
	fmt.Fprintln(w, "serve-load: PASS")
	return nil
}

// submitOne POSTs one campaign and returns its ID.
func submitOne(client *http.Client, base, tenant, body string) (string, error) {
	req, err := http.NewRequest(http.MethodPost, base+"/v1/campaigns", strings.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", tenant)
	resp, err := client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var c campaign.Campaign
	if err := json.NewDecoder(resp.Body).Decode(&c); err != nil {
		return "", fmt.Errorf("decoding submit response (HTTP %d): %w", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("submit: HTTP %d", resp.StatusCode)
	}
	return c.ID, nil
}

// pollDone GETs the campaign until it reaches a terminal state.
func pollDone(client *http.Client, base, id string) (*campaign.Campaign, error) {
	for {
		resp, err := client.Get(base + "/v1/campaigns/" + id)
		if err != nil {
			return nil, err
		}
		var c campaign.Campaign
		err = json.NewDecoder(resp.Body).Decode(&c)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("polling %s (HTTP %d): %w", id, resp.StatusCode, err)
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("polling %s: HTTP %d", id, resp.StatusCode)
		}
		if c.Terminal() {
			return &c, nil
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// digestKeys lists the distinct digests for the failure message.
func digestKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
