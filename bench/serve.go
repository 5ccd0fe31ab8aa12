package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/manetd"
	"repro/internal/scenario"
)

// serveSpec is the campaign every serve op submits: 4 static nodes for 5
// simulated seconds, small enough that the service plumbing, not the
// simulator, is what a campaign costs. The 300 m arena puts the nodes on
// a square whose diagonals exceed the 200 m radio range, so a campaign
// still exercises HELLOs, MPR selection and TCs.
const serveSpec = `{"name": "serve-load", "seed": %d, "nodes": 4, "arenaSide": 300, "duration": "5s", "attacks": []}`

const (
	// serveSeeds is how many distinct campaign seeds a run cycles through;
	// every campaign's digest must match a direct run of its seed.
	serveSeeds = 64
	// serveWarmup campaigns run untimed before the measured loop.
	serveWarmup = 200
)

// serveInstance is a manetd behind a loopback HTTP listener, driven by a
// closed loop of nproc clients: each submits a campaign, follows its
// watch stream to the terminal line, and only then submits the next.
type serveInstance struct {
	seed    int64
	clients int
	bodies  [][]byte
	srv     *manetd.Server
	ts      *httptest.Server
	http    *http.Client
	chk     *checker

	// traced makes run (not warm) split each campaign's latency at the
	// snapshot timestamps into stages.
	traced bool

	mu       sync.Mutex
	digests  [serveSeeds][]string // terminal digests per seed index
	rejected int                  // submits answered with another status than 202
	timed    bool                 // the current loop records stages
	stages   map[string][]float64
}

func openServe(o Options) (instance, error) {
	s := &serveInstance{seed: o.Seed, clients: runtime.NumCPU(), chk: newChecker(o.Root), traced: o.Trace}
	for i := range serveSeeds {
		s.bodies = append(s.bodies, []byte(`{"spec": `+fmt.Sprintf(serveSpec, s.specSeed(i))+`}`))
	}
	s.srv = manetd.New(manetd.Config{})
	s.ts = httptest.NewServer(s.srv)
	s.http = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: s.clients}}
	s.stages = map[string][]float64{}
	return s, nil
}

func (s *serveInstance) specSeed(i int) int64 {
	return scenario.DeriveSeed(s.seed, "manetbench/serve", 0, i)
}

// checks first holds every campaign so far to a direct run of its seed.
func (s *serveInstance) checks() *checker {
	s.verify()
	return s.chk
}

func (s *serveInstance) close() {
	s.ts.Close()
	s.srv.Close()
	s.http.CloseIdleConnections()
}

// setup starts a fresh service on a loopback listener and times it until
// /healthz answers 200. The probe is served in process: a first TCP
// round trip would time the host's loopback and cross-CPU wakeups, which
// swing the median by 2x between runs, rather than the service.
func (s *serveInstance) setup() (time.Duration, error) {
	start := time.Now()
	srv := manetd.New(manetd.Config{})
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()
	for {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		if rec.Code == http.StatusOK {
			return time.Since(start), nil
		}
	}
}

func (s *serveInstance) warm() error {
	s.timed = false
	_, err := s.loop(0, serveWarmup)
	return err
}

func (s *serveInstance) run(from, n int) ([]span, error) {
	s.timed = s.traced
	return s.loop(from, n)
}

// loop runs campaigns [from, from+n) on the closed loop and returns their
// spans. Campaign i uses seed index i % serveSeeds.
func (s *serveInstance) loop(from, n int) ([]span, error) {
	var claimed atomic.Int64
	out := make([]span, n)
	var wg sync.WaitGroup
	wg.Add(s.clients)
	for range s.clients {
		go func() {
			defer wg.Done()
			for {
				i := int(claimed.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = s.campaign((from + i) % serveSeeds)
			}
		}()
	}
	wg.Wait()
	return out, nil
}

// watchLine is the part of a campaign snapshot the generator decodes.
type watchLine struct {
	State campaign.State `json:"state"`
	Runs  []struct {
		Digest string `json:"digest"`
	} `json:"runs"`
}

// stageTimes are the snapshot timestamps a traced run also decodes.
type stageTimes struct {
	SubmittedAt time.Time  `json:"submittedAt"`
	StartedAt   *time.Time `json:"startedAt"`
	FinishedAt  *time.Time `json:"finishedAt"`
}

// campaign submits one campaign of seed index k and follows it to its
// terminal watch line. It returns the span from submit to that line;
// failures are recorded for the checker, which sees them once the loop
// is over.
func (s *serveInstance) campaign(k int) span {
	start := time.Now()
	id, err := s.submit(k)
	if err != nil {
		s.record(k, "", err)
		return span{start, time.Now()}
	}
	resp, err := s.http.Get(s.ts.URL + "/v1/campaigns/" + id + "?watch=1")
	if err != nil {
		s.record(k, "", err)
		return span{start, time.Now()}
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 16<<10), 1<<20)
	for sc.Scan() {
		var wl watchLine
		if err := json.Unmarshal(sc.Bytes(), &wl); err != nil {
			s.record(k, "", fmt.Errorf("watch %s: %w", id, err))
			return span{start, time.Now()}
		}
		if !wl.State.Terminal() {
			continue
		}
		end := time.Now()
		switch {
		case wl.State != campaign.StateDone:
			s.record(k, "", fmt.Errorf("campaign %s ended %s", id, wl.State))
		case len(wl.Runs) != 1:
			s.record(k, "", fmt.Errorf("campaign %s has %d runs, want 1", id, len(wl.Runs)))
		default:
			s.record(k, wl.Runs[0].Digest, nil)
		}
		if s.timed {
			s.stageSample(start, end, sc.Bytes())
		}
		return span{start, end}
	}
	s.record(k, "", fmt.Errorf("watch %s ended without a terminal line: %v", id, sc.Err()))
	return span{start, time.Now()}
}

// submit POSTs a campaign and returns its ID; any status but 202 fails.
func (s *serveInstance) submit(k int) (string, error) {
	resp, err := s.http.Post(s.ts.URL+"/v1/campaigns", "application/json", bytes.NewReader(s.bodies[k]))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var c struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&c); err != nil {
		return "", fmt.Errorf("submit: HTTP %d: %w", resp.StatusCode, err)
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drained for connection reuse
	if resp.StatusCode != http.StatusAccepted {
		s.mu.Lock()
		s.rejected++
		s.mu.Unlock()
		return "", fmt.Errorf("submit: HTTP %d", resp.StatusCode)
	}
	return c.ID, nil
}

// record stores one campaign's outcome for verify.
func (s *serveInstance) record(k int, digest string, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.chk.fail("serve seed %d: %v", s.specSeed(k), err)
		return
	}
	s.digests[k] = append(s.digests[k], digest)
}

// stageSample splits one campaign's latency at the snapshot timestamps.
func (s *serveInstance) stageSample(start, end time.Time, line []byte) {
	var st stageTimes
	if json.Unmarshal(line, &st) != nil || st.StartedAt == nil || st.FinishedAt == nil {
		return
	}
	ms := func(a, b time.Time) float64 { return float64(b.Sub(a)) / float64(time.Millisecond) }
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stages["manetd.submit_ms"] = append(s.stages["manetd.submit_ms"], ms(start, st.SubmittedAt))
	s.stages["campaign.queue_wait_ms"] = append(s.stages["campaign.queue_wait_ms"], ms(st.SubmittedAt, *st.StartedAt))
	s.stages["campaign.exec_ms"] = append(s.stages["campaign.exec_ms"], ms(*st.StartedAt, *st.FinishedAt))
	s.stages["manetd.notify_ms"] = append(s.stages["manetd.notify_ms"], ms(*st.FinishedAt, end))
}

// spec parses the campaign spec of seed index k.
func (s *serveInstance) spec(k int) (scenario.Spec, error) {
	return scenario.Parse([]byte(fmt.Sprintf(serveSpec, s.specSeed(k))))
}

// verify runs every seed directly through scenario.Run and requires each
// campaign's digest to match it: the service must be byte-identical to
// the engine.
func (s *serveInstance) verify() {
	for k := range serveSeeds {
		if len(s.digests[k]) == 0 {
			continue
		}
		spec, err := s.spec(k)
		if err != nil {
			s.chk.fail("serve seed %d: %v", s.specSeed(k), err)
			continue
		}
		res, err := scenario.Run(spec)
		if err != nil {
			s.chk.fail("direct run of %s seed %d: %v", spec.Name, spec.Seed, err)
			continue
		}
		key := runKey{spec.Name, spec.Seed}
		s.chk.seen[key] = res.Digest().Hash
		for _, d := range s.digests[k] {
			s.chk.agree(key, d)
		}
		s.digests[k] = nil
	}
}

// layers counts a campaign's simulation by running every seed directly,
// untraced and traced; the engine's view of a campaign is its one run.
func (s *serveInstance) layers(_ int, _ []float64) (*layerData, error) {
	const rounds = 5
	ld := &layerData{workers: 1, extra: map[string]Value{}}
	var untraced, traced []float64
	for k := range serveSeeds {
		spec, err := s.spec(k)
		if err != nil {
			return nil, err
		}
		for r := range rounds {
			start := time.Now()
			if _, err := scenario.Run(spec); err != nil {
				return nil, err
			}
			untraced = append(untraced, time.Since(start).Seconds())
			ctr := &eventCounter{}
			start = time.Now()
			res, err := scenario.RunTraced(spec, ctr)
			if err != nil {
				return nil, err
			}
			traced = append(traced, time.Since(start).Seconds())
			if r == 0 {
				ld.counts.add(res, ctr)
			}
		}
	}
	ld.counts.scale(1.0 / serveSeeds)
	ld.serial = Median(untraced)
	ld.crit = ld.serial
	ld.overhead = Median(traced)/ld.serial - 1
	for name, xs := range s.stages {
		ld.extra[name] = Value{Median(xs), "ms", len(xs)}
	}
	ld.extra["campaign.rejected"] = Value{float64(s.rejected), "count", 0}
	return ld, nil
}
