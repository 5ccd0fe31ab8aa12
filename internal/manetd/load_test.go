package manetd

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
)

// TestServiceLoad fans campaigns out across tenants over real HTTP, each
// tenant submitting its whole share at once under a concurrency quota
// that exactly fits it, and holds the service to its invariants: every
// campaign reaches done, no submission is rate- or quota-rejected, every
// run of the identical spec has the same digest, and the goroutine count
// returns to its baseline after drain.
func TestServiceLoad(t *testing.T) {
	const tenants, perTenant = 8, 125 // 1000 campaigns
	baseline := runtime.NumGoroutine()

	srv := New(Config{Campaign: campaign.Config{Quota: campaign.Quota{MaxActive: perTenant}}})
	ts := httptest.NewServer(srv)
	client := ts.Client()

	// One goroutine per tenant keeps each tenant inside its own quota
	// window while tenants contend with each other on the wire.
	body := fmt.Sprintf(`{"spec": `+tinySpecJSON+`}`, 7)
	ids := make([][]string, tenants)
	errs := make([]error, tenants)
	var wg sync.WaitGroup
	for tn := range tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range perTenant {
				id, err := submitAs(client, ts.URL, fmt.Sprintf("tenant-%02d", tn), body)
				if err != nil {
					errs[tn] = fmt.Errorf("tenant %d submit %d: %w", tn, k, err)
					return
				}
				ids[tn] = append(ids[tn], id)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	digests := make(map[string]int)
	for _, tenantIDs := range ids {
		for _, id := range tenantIDs {
			c := pollDone(t, client, ts.URL+"/v1/campaigns/"+id)
			if c.State != campaign.StateDone {
				t.Fatalf("campaign %s finished %q (error %q), want done", id, c.State, c.Error)
			}
			for _, r := range c.Runs {
				digests[r.Digest]++
			}
		}
	}
	if st := srv.Manager().Stats(); st.RateLimited != 0 || st.QuotaRejected != 0 {
		t.Errorf("%d rate-limited and %d quota-rejected submissions, want 0", st.RateLimited, st.QuotaRejected)
	}
	if len(digests) != 1 {
		t.Errorf("%d distinct digests across identical runs: %v", len(digests), digests)
	}

	ts.Close()
	srv.Close()
	// HTTP keep-alive and runtime goroutines wind down lazily, so the
	// count gets a bounded settle window and a little slack.
	const slack = 8
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > baseline+slack && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > baseline+slack {
		t.Errorf("goroutines: %d live after drain, baseline %d", n, baseline)
	}
}

// submitAs POSTs one campaign for tenant and returns its ID. It reports
// errors instead of failing the test, so submitter goroutines can call it.
func submitAs(client *http.Client, base, tenant, body string) (string, error) {
	req, err := http.NewRequest(http.MethodPost, base+"/v1/campaigns", strings.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("X-Tenant", tenant)
	resp, err := client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	var c campaign.Campaign
	if err := json.NewDecoder(resp.Body).Decode(&c); err != nil {
		return "", err
	}
	return c.ID, nil
}
