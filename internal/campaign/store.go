package campaign

import (
	"fmt"
	"sort"
	"sync"
)

// MemStore is the campaign store: a mutex-guarded map. The Manager is
// the only writer; reads may come from any goroutine (HTTP handlers, the
// metrics exporter), so every read returns a snapshot — a caller can
// never observe a campaign mid-mutation. Campaigns survive as long as
// the process; a service restart starts empty.
type MemStore struct {
	mu        sync.RWMutex
	campaigns map[string]*Campaign
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{campaigns: make(map[string]*Campaign)}
}

// Create inserts a new campaign; the ID must be unused.
func (s *MemStore) Create(c *Campaign) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.campaigns[c.ID]; dup {
		return fmt.Errorf("campaign: id %q already exists", c.ID)
	}
	s.campaigns[c.ID] = c.Clone()
	return nil
}

// Get returns a snapshot of the campaign, if known.
func (s *MemStore) Get(id string) (*Campaign, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.campaigns[id]
	if !ok {
		return nil, false
	}
	return c.Clone(), true
}

// List returns snapshots, oldest submission first; tenant "" lists
// every tenant.
func (s *MemStore) List(tenant string) []*Campaign {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Campaign, 0, len(s.campaigns))
	for _, c := range s.campaigns {
		if tenant != "" && c.Tenant != tenant {
			continue
		}
		out = append(out, c.Clone())
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].SubmittedAt.Equal(out[j].SubmittedAt) {
			return out[i].SubmittedAt.Before(out[j].SubmittedAt)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Update applies mutate to the stored campaign under the store's lock
// and reports whether the ID was known. mutate must not retain the
// *Campaign it is handed.
func (s *MemStore) Update(id string, mutate func(*Campaign)) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.campaigns[id]
	if !ok {
		return false
	}
	mutate(c)
	return true
}

// ActiveCount counts the tenant's non-terminal campaigns — the quota
// denominator.
func (s *MemStore) ActiveCount(tenant string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, c := range s.campaigns {
		if c.Tenant == tenant && !c.Terminal() {
			n++
		}
	}
	return n
}
