package campaign

import (
	"errors"
	"math"
	"time"
)

// Submission rejections. The HTTP layer maps both to 429.
var (
	// ErrRateLimited rejects a submission that outpaces the tenant's
	// token bucket.
	ErrRateLimited = errors.New("campaign: tenant rate limit exceeded")
	// ErrQuotaExceeded rejects a submission that would put the tenant
	// over its concurrent-campaign quota.
	ErrQuotaExceeded = errors.New("campaign: tenant concurrency quota exceeded")
)

// Quota bounds one tenant's use of the service. The zero value imposes
// no limits.
type Quota struct {
	// MaxActive caps a tenant's non-terminal (queued + running)
	// campaigns; <= 0 means unlimited.
	MaxActive int
	// RatePerSec is the sustained submission rate the token bucket
	// refills at; <= 0 disables rate limiting.
	RatePerSec float64
	// Burst is the bucket capacity — how many submissions a tenant can
	// make back to back after an idle period. <= 0 defaults to
	// max(1, ceil(RatePerSec)).
	Burst int
}

// burst resolves the effective bucket capacity.
func (q Quota) burst() float64 {
	if q.Burst > 0 {
		return float64(q.Burst)
	}
	return math.Max(1, math.Ceil(q.RatePerSec))
}

// bucket is one tenant's token bucket. Buckets are created full on
// first use, so a new tenant can always burst immediately.
type bucket struct {
	tokens float64
	last   time.Time
}

// allow consumes one token from the tenant's bucket at time now,
// reporting ErrRateLimited when it is empty. m.mu must be held.
func (m *Manager) allow(tenant string, now time.Time) error {
	if m.quota.RatePerSec <= 0 {
		return nil
	}
	b := m.buckets[tenant]
	if b == nil {
		b = &bucket{tokens: m.quota.burst(), last: now}
		m.buckets[tenant] = b
	} else if elapsed := now.Sub(b.last).Seconds(); elapsed > 0 {
		b.tokens = math.Min(m.quota.burst(), b.tokens+elapsed*m.quota.RatePerSec)
		b.last = now
	}
	if b.tokens < 1 {
		return ErrRateLimited
	}
	b.tokens--
	return nil
}
