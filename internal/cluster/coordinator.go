package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
)

// Config parameterizes a Coordinator. Workers and Advertise are
// required; every other zero field takes the documented default.
type Config struct {
	// Workers are the worker base URLs ("http://host:8357"); trailing
	// slashes are trimmed.
	Workers []string
	// Advertise is the coordinator's own base URL as workers must reach
	// it for heartbeats and results.
	Advertise string
	// LeaseTTL is how long a lease lives without a heartbeat (default
	// 5s). Workers heartbeat at TTL/3.
	LeaseTTL time.Duration
	// MaxAttempts bounds how many leases one shard may consume before the
	// campaign fails (default 3).
	MaxAttempts int
	// PointsPerShard sizes shards in consecutive grid points (default 1).
	PointsPerShard int
	// LeasesPerWorker bounds concurrently leased shards per worker
	// (default 1). A worker may still answer 429 below this bound — its
	// own shard slots are the authority — and the coordinator backs off.
	LeasesPerWorker int
	// Lanes is the campaign lane setting every worker runs with (the
	// usual 0 = auto, 1 = force scalar). All shards share it so all
	// samples come from one engine's randomness stream.
	Lanes int
	// OfferTimeout bounds one lease-offer round trip (default 3s).
	OfferTimeout time.Duration
	// Backoff is the base back-off after an offer fails or is rejected
	// without a Retry-After hint; it doubles per consecutive failure of
	// the same worker, capped at 32x (default 500ms).
	Backoff time.Duration
	// Tick is the scheduler loop cadence (default 25ms).
	Tick time.Duration
	// Dir is the coordinator checkpoint directory; "" disables
	// durability. Resume reopens it and skips shards whose samples are
	// already complete.
	Dir    string
	Resume bool
	// Progress, when non-nil, receives human-readable progress lines.
	Progress io.Writer
	// OnEvent, when non-nil, observes protocol transitions; it is called
	// synchronously without internal locks held (tests inject faults at
	// exact moments through it).
	OnEvent func(Event)
	// Client overrides the HTTP client used for lease offers.
	Client *http.Client
}

func (c *Config) leaseTTL() time.Duration {
	if c.LeaseTTL > 0 {
		return c.LeaseTTL
	}
	return 5 * time.Second
}

func (c *Config) maxAttempts() int {
	if c.MaxAttempts > 0 {
		return c.MaxAttempts
	}
	return 3
}

func (c *Config) leasesPerWorker() int {
	if c.LeasesPerWorker > 0 {
		return c.LeasesPerWorker
	}
	return 1
}

func (c *Config) offerTimeout() time.Duration {
	if c.OfferTimeout > 0 {
		return c.OfferTimeout
	}
	return 3 * time.Second
}

func (c *Config) backoff() time.Duration {
	if c.Backoff > 0 {
		return c.Backoff
	}
	return 500 * time.Millisecond
}

func (c *Config) tick() time.Duration {
	if c.Tick > 0 {
		return c.Tick
	}
	return 25 * time.Millisecond
}

type shardState struct {
	Shard
	state    string
	attempts int // leases granted so far
	leaseID  string
	worker   *workerState
	deadline time.Time
	lastErr  string
}

type workerState struct {
	url          string
	active       int
	backoffUntil time.Time
	consecFails  int
	lastContact  time.Time
}

// leaseRec tracks one issued lease so a worker's concurrency charge is
// released exactly once no matter how the lease ends (grant, rejection,
// expiry, result).
type leaseRec struct {
	shard   *shardState
	worker  *workerState
	charged bool
}

// Coordinator executes one campaign across a worker fleet. Create with
// NewCoordinator, mount Handler on the advertised address, then Run.
type Coordinator struct {
	spec     *campaign.Spec
	specHash string
	cfg      Config
	client   *http.Client

	mu       sync.Mutex
	shards   []*shardState
	byID     map[string]*shardState
	workers  []*workerState
	leases   map[string]*leaseRec
	set      *campaign.SampleSet
	ck       *campaign.Checkpoint
	counters Counters
	leaseSeq int
	rr       int
	failure  error
	finished bool
}

// NewCoordinator validates the spec and plans the shards. Call Handler
// and serve it on cfg.Advertise before Run, or workers cannot call back.
func NewCoordinator(spec *campaign.Spec, cfg Config) (*Coordinator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("cluster: no workers configured")
	}
	if cfg.Advertise == "" {
		return nil, fmt.Errorf("cluster: no advertise URL configured (workers must reach the coordinator for heartbeats and results)")
	}
	if cfg.Resume && cfg.Dir == "" {
		return nil, fmt.Errorf("cluster: resume requires a checkpoint directory")
	}
	c := &Coordinator{
		spec:     spec,
		specHash: spec.Hash(),
		cfg:      cfg,
		client:   cfg.Client,
		byID:     make(map[string]*shardState),
		leases:   make(map[string]*leaseRec),
		set:      campaign.NewSampleSet(spec),
	}
	if c.client == nil {
		c.client = &http.Client{Timeout: cfg.offerTimeout()}
	}
	for _, s := range Plan(spec, cfg.PointsPerShard) {
		st := &shardState{Shard: s, state: ShardPending}
		c.shards = append(c.shards, st)
		c.byID[s.ID] = st
	}
	for _, u := range cfg.Workers {
		c.workers = append(c.workers, &workerState{url: strings.TrimRight(u, "/")})
	}
	return c, nil
}

// Handler returns the coordinator's HTTP routes (heartbeat, result,
// status, metrics).
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/shard/{id}/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /v1/shard/{id}/result", c.handleResult)
	mux.HandleFunc("GET /v1/cluster/status", c.handleStatus)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	return mux
}

// Run drives the campaign to completion: grants leases, expires silent
// ones, imports results, and returns the final report — byte-identical
// (via Report.JSON/Text) to campaign.Run of the same spec. A canceled
// context flushes the checkpoint and returns the partial report with nil
// error, mirroring campaign.Run's interrupt contract; a shard exhausting
// its lease budget or a sample conflict fails the run with the partial
// report attached.
func (c *Coordinator) Run(ctx context.Context) (*campaign.Report, error) {
	if err := c.openCheckpoint(); err != nil {
		return nil, err
	}
	tick := time.NewTicker(c.cfg.tick())
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return c.finish()
		case <-tick.C:
		}
		now := time.Now()
		for _, ev := range c.expire(now) {
			c.emit(ev)
		}
		for _, g := range c.pickGrants(now) {
			go c.offer(g.shard, g.worker)
		}
		c.mu.Lock()
		failed := c.failure
		done := true
		for _, s := range c.shards {
			if s.state != ShardCompleted {
				done = false
				break
			}
		}
		c.mu.Unlock()
		if failed != nil {
			rep, ferr := c.finish()
			if ferr == nil {
				ferr = failed
			}
			return rep, ferr
		}
		if done {
			return c.finish()
		}
	}
}

// openCheckpoint creates or resumes the coordinator checkpoint and marks
// shards already completed by the recorded samples.
func (c *Coordinator) openCheckpoint() error {
	if c.cfg.Dir == "" {
		return nil
	}
	engine := campaign.EngineTag(c.spec, c.cfg.Lanes)
	if c.cfg.Resume {
		ck, samples, err := campaign.OpenCheckpoint(c.cfg.Dir, c.spec, engine)
		if err != nil {
			return err
		}
		c.ck = ck
		for _, s := range samples {
			if _, err := c.set.Add(*s); err != nil {
				return fmt.Errorf("cluster: resuming %s: %w", c.cfg.Dir, err)
			}
		}
		// The samples are the source of truth: a shard whose range is
		// complete needs no lease, whatever the recorded lease table says.
		for _, s := range c.shards {
			if c.set.RangeComplete(s.Lo, s.Hi) {
				s.state = ShardCompleted
				c.counters.ShardsCompleted++
			}
		}
		c.progressf("cluster: resumed %d samples, %d/%d shards already complete\n",
			c.set.Len(), c.completedLocked(), len(c.shards))
		return nil
	}
	ck, err := campaign.CreateCheckpoint(c.cfg.Dir, c.spec, engine)
	if err != nil {
		return err
	}
	c.ck = ck
	return nil
}

func (c *Coordinator) completedLocked() int {
	n := 0
	for _, s := range c.shards {
		if s.state == ShardCompleted {
			n++
		}
	}
	return n
}

// expire returns leases whose deadline passed to the pending pool.
func (c *Coordinator) expire(now time.Time) []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	var evs []Event
	for _, s := range c.shards {
		if s.state != ShardLeased || now.Before(s.deadline) {
			continue
		}
		worker := ""
		if rec := c.leases[s.leaseID]; rec != nil {
			worker = rec.worker.url
			c.uncharge(rec)
			delete(c.leases, s.leaseID)
		}
		c.counters.LeasesExpired++
		evs = append(evs, Event{Type: "expired", Shard: s.ID, Worker: worker, Attempt: s.attempts})
		s.leaseID = ""
		s.worker = nil
		if ev, failed := c.returnToPending(s, "lease expired without heartbeat"); failed {
			evs = append(evs, ev)
		}
	}
	return evs
}

// returnToPending puts a shard back in the pending pool, or fails the
// campaign when its lease budget is exhausted. Caller holds mu.
func (c *Coordinator) returnToPending(s *shardState, why string) (Event, bool) {
	if s.attempts >= c.cfg.maxAttempts() {
		return c.failShard(s, why), true
	}
	s.lastErr = why
	s.state = ShardPending
	return Event{}, false
}

// failShard marks a shard failed and fails the campaign. Caller holds mu.
func (c *Coordinator) failShard(s *shardState, why string) Event {
	s.lastErr = why
	s.state = ShardFailed
	c.counters.ShardsFailed++
	if c.failure == nil {
		c.failure = fmt.Errorf("cluster: shard %s (points [%d,%d)) failed after %d lease(s): %s",
			s.ID, s.Lo, s.Hi, s.attempts, why)
	}
	return Event{Type: "failed", Shard: s.ID, Attempt: s.attempts, Err: why}
}

func (c *Coordinator) uncharge(rec *leaseRec) {
	if rec.charged {
		rec.charged = false
		if rec.worker.active > 0 {
			rec.worker.active--
		}
	}
}

type grant struct {
	shard  *shardState
	worker *workerState
}

// pickGrants matches pending shards to available workers round-robin and
// marks them offering; the actual HTTP offers run outside the lock.
func (c *Coordinator) pickGrants(now time.Time) []grant {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failure != nil || c.finished {
		return nil
	}
	var grants []grant
	for _, s := range c.shards {
		if s.state != ShardPending {
			continue
		}
		var picked *workerState
		for i := 0; i < len(c.workers); i++ {
			w := c.workers[(c.rr+i)%len(c.workers)]
			if w.active >= c.cfg.leasesPerWorker() || now.Before(w.backoffUntil) {
				continue
			}
			picked = w
			c.rr = (c.rr + i + 1) % len(c.workers)
			break
		}
		if picked == nil {
			break // every worker busy or backing off; retry next tick
		}
		c.leaseSeq++
		s.state = ShardOffering
		s.leaseID = fmt.Sprintf("l%05d", c.leaseSeq)
		s.worker = picked
		picked.active++
		c.leases[s.leaseID] = &leaseRec{shard: s, worker: picked, charged: true}
		grants = append(grants, grant{shard: s, worker: picked})
	}
	return grants
}

// offer performs one lease offer round trip and applies the outcome.
func (c *Coordinator) offer(s *shardState, w *workerState) {
	c.mu.Lock()
	offer := LeaseOffer{
		LeaseID:     s.leaseID,
		ShardID:     s.ID,
		PointLo:     s.Lo,
		PointHi:     s.Hi,
		Spec:        c.spec,
		SpecHash:    c.specHash,
		Lanes:       c.cfg.Lanes,
		TTLMs:       int(c.cfg.leaseTTL() / time.Millisecond),
		Coordinator: c.cfg.Advertise,
		Worker:      w.url,
	}
	c.mu.Unlock()

	body, err := json.Marshal(&offer)
	if err != nil {
		panic("cluster: marshaling lease offer: " + err.Error()) // plain data, cannot fail
	}
	resp, err := c.client.Post(w.url+"/v1/shard/lease", "application/json", bytes.NewReader(body))
	var status int
	var retryAfter time.Duration
	var respBody []byte
	if err == nil {
		status = resp.StatusCode
		if ra, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && ra >= 0 {
			retryAfter = time.Duration(ra) * time.Second
		}
		respBody, _ = io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
	}

	now := time.Now()
	c.mu.Lock()
	rec := c.leases[offer.LeaseID]
	if rec == nil || s.state != ShardOffering || s.leaseID != offer.LeaseID {
		// The shard completed meanwhile (late result from a previous
		// lease) or the run is finishing; release the charge if any.
		if rec != nil {
			c.uncharge(rec)
			delete(c.leases, offer.LeaseID)
		}
		c.mu.Unlock()
		return
	}
	var evs []Event
	switch {
	case err == nil && status == http.StatusOK:
		s.state = ShardLeased
		s.attempts++
		s.deadline = now.Add(c.cfg.leaseTTL())
		w.consecFails = 0
		w.lastContact = now
		c.counters.LeasesGranted++
		if s.attempts > 1 {
			c.counters.LeasesReassigned++
		}
		evs = append(evs, Event{Type: "granted", Shard: s.ID, Worker: w.url, Attempt: s.attempts})
	case err == nil && status == http.StatusTooManyRequests:
		// Backpressure, not failure: the worker's shard slots are full.
		// Honor its Retry-After and re-offer (to anyone) later.
		c.uncharge(rec)
		delete(c.leases, offer.LeaseID)
		s.state = ShardPending
		s.leaseID = ""
		s.worker = nil
		if retryAfter <= 0 {
			retryAfter = c.cfg.backoff()
		}
		w.backoffUntil = now.Add(retryAfter)
		w.lastContact = now
		c.counters.OffersBusy++
		evs = append(evs, Event{Type: "busy", Shard: s.ID, Worker: w.url})
	case err == nil && status >= 400 && status < 500:
		// The worker rejected the offer itself — a malformed offer, or a
		// point over its graph-size cap. Re-offering the same shard
		// cannot succeed, so the shard and with it the campaign fail.
		c.uncharge(rec)
		delete(c.leases, offer.LeaseID)
		s.leaseID = ""
		s.worker = nil
		w.lastContact = now
		evs = append(evs, c.failShard(s, fmt.Sprintf("worker %s rejected the lease offer: status %d: %s",
			w.url, status, bytes.TrimSpace(respBody))))
	default:
		// Connection failure or an unexpected status: back the worker off
		// exponentially and re-offer the shard. Neither consumes a lease
		// attempt — the shard never started.
		c.uncharge(rec)
		delete(c.leases, offer.LeaseID)
		s.state = ShardPending
		s.leaseID = ""
		s.worker = nil
		backoff := c.cfg.backoff() << min(w.consecFails, 5)
		w.backoffUntil = now.Add(backoff)
		w.consecFails++
		c.counters.OfferErrors++
		msg := fmt.Sprintf("status %d", status)
		if err != nil {
			msg = err.Error()
		}
		evs = append(evs, Event{Type: "offer-error", Shard: s.ID, Worker: w.url, Err: msg})
	}
	c.mu.Unlock()
	for _, ev := range evs {
		c.emit(ev)
	}
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var hb Heartbeat
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&hb); err != nil {
		http.Error(w, "cluster: malformed heartbeat: "+err.Error(), http.StatusBadRequest)
		return
	}
	now := time.Now()
	c.mu.Lock()
	rec := c.leases[id]
	// An Offering lease is live too: the worker's first heartbeat can
	// race the coordinator's processing of its own lease ack.
	live := rec != nil && !c.finished && rec.shard.leaseID == id &&
		(rec.shard.state == ShardLeased || rec.shard.state == ShardOffering)
	if live {
		rec.shard.deadline = now.Add(c.cfg.leaseTTL())
		rec.worker.lastContact = now
	}
	ttl := int(c.cfg.leaseTTL() / time.Millisecond)
	c.mu.Unlock()
	if !live {
		writeJSON(w, http.StatusGone, map[string]string{"error": "no such lease " + id})
		return
	}
	writeJSON(w, http.StatusOK, HeartbeatAck{LeaseID: id, TTLMs: ttl})
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var res ShardResult
	if err := json.NewDecoder(io.LimitReader(r.Body, 256<<20)).Decode(&res); err != nil {
		http.Error(w, "cluster: malformed result: "+err.Error(), http.StatusBadRequest)
		return
	}
	if res.LeaseID == "" {
		res.LeaseID = id
	}
	status, body, evs := c.importResult(&res)
	for _, ev := range evs {
		c.emit(ev)
	}
	writeJSON(w, status, body)
}

// importResult applies one shard result under the lock and returns the
// HTTP outcome plus the events to emit after unlocking.
func (c *Coordinator) importResult(res *ShardResult) (int, any, []Event) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	var evs []Event
	s := c.byID[res.ShardID]
	if s == nil {
		return http.StatusNotFound, map[string]string{"error": "no such shard " + res.ShardID}, nil
	}
	rec := c.leases[res.LeaseID]
	if rec != nil {
		rec.worker.lastContact = now
		// A worker can run a small shard and deliver its result before
		// the coordinator even processes the lease ack. A result for an
		// in-flight offer IS the acceptance: count the grant here, and
		// the ack path — which will find the lease record gone — skips.
		if rec.shard == s && s.state == ShardOffering && s.leaseID == res.LeaseID {
			s.state = ShardLeased
			s.attempts++
			rec.worker.consecFails = 0
			c.counters.LeasesGranted++
			if s.attempts > 1 {
				c.counters.LeasesReassigned++
			}
			evs = append(evs, Event{Type: "granted", Shard: s.ID, Worker: rec.worker.url, Attempt: s.attempts})
		}
		c.uncharge(rec)
		delete(c.leases, res.LeaseID)
	}
	if c.finished || s.state == ShardCompleted || s.state == ShardFailed {
		// Idempotent: a slow worker delivering after reassignment (or
		// after the run ended) adds nothing, but its delivery is normal.
		c.counters.ResultsDuplicate++
		return http.StatusOK, map[string]string{"state": "duplicate"},
			append(evs, Event{Type: "result-duplicate", Shard: s.ID, Worker: res.Worker})
	}
	if rec == nil {
		// The lease expired but the shard is still open: the samples are
		// pure functions of their seeds, so a late result is as good as a
		// fresh one. Import it; the replacement lease (if any) will
		// deliver an identical duplicate.
		c.counters.ResultsLate++
		evs = append(evs, Event{Type: "result-late", Shard: s.ID, Worker: res.Worker})
	}
	if res.Error != "" {
		// Shard-level failure on the worker. Costs the attempt its lease
		// already consumed; retry if budget remains.
		if s.leaseID == res.LeaseID {
			s.leaseID = ""
			s.worker = nil
		}
		if ev, failed := c.returnToPending(s, fmt.Sprintf("worker %s: %s", res.Worker, res.Error)); failed {
			evs = append(evs, ev)
		} else {
			evs = append(evs, Event{Type: "result-error", Shard: s.ID, Worker: res.Worker, Err: res.Error})
		}
		return http.StatusOK, map[string]string{"state": "retry"}, evs
	}
	added, err := c.set.AddAll(res.Samples)
	if err != nil {
		// A conflicting sample can only mean corruption or an engine
		// mismatch; no retry can fix it, so the campaign fails loudly.
		if c.failure == nil {
			c.failure = fmt.Errorf("cluster: result for shard %s from %s: %w", s.ID, res.Worker, err)
		}
		return http.StatusConflict, map[string]string{"error": err.Error()}, evs
	}
	if !c.set.RangeComplete(s.Lo, s.Hi) {
		if s.leaseID == res.LeaseID {
			s.leaseID = ""
			s.worker = nil
		}
		if ev, failed := c.returnToPending(s, fmt.Sprintf("worker %s delivered an incomplete shard", res.Worker)); failed {
			evs = append(evs, ev)
		}
		return http.StatusOK, map[string]string{"state": "retry"}, evs
	}
	if c.ck != nil {
		for _, sm := range added {
			c.ck.Append(sm)
		}
		c.ck.SetLeases(c.leaseSnapshotLocked())
		if err := c.ck.Flush(false); err != nil {
			if c.failure == nil {
				c.failure = err
			}
			return http.StatusInternalServerError, map[string]string{"error": err.Error()}, evs
		}
	}
	s.state = ShardCompleted
	s.leaseID = ""
	s.worker = nil
	c.counters.ShardsCompleted++
	evs = append(evs, Event{Type: "completed", Shard: s.ID, Worker: res.Worker, Attempt: s.attempts})
	c.progressf("cluster: shard %s (points [%d,%d)) completed by %s, %d/%d shards done\n",
		s.ID, s.Lo, s.Hi, res.Worker, c.completedLocked(), len(c.shards))
	return http.StatusOK, map[string]string{"state": "completed"}, evs
}

// leaseSnapshotLocked renders the lease table for manifest bookkeeping.
func (c *Coordinator) leaseSnapshotLocked() []campaign.ShardLease {
	out := make([]campaign.ShardLease, len(c.shards))
	for i, s := range c.shards {
		worker := ""
		if s.worker != nil {
			worker = s.worker.url
		}
		out[i] = campaign.ShardLease{
			ID: s.ID, PointLo: s.Lo, PointHi: s.Hi,
			State: s.state, Attempts: s.attempts, Worker: worker,
		}
	}
	return out
}

// finish flushes the checkpoint and builds the final report.
func (c *Coordinator) finish() (*campaign.Report, error) {
	c.mu.Lock()
	c.finished = true
	report := c.set.Report()
	var err error
	if c.ck != nil {
		c.ck.SetLeases(c.leaseSnapshotLocked())
		err = c.ck.Flush(c.set.Complete())
		if cerr := c.ck.Close(); err == nil {
			err = cerr
		}
		c.ck = nil
	}
	samples, completed, total := c.set.Len(), c.completedLocked(), len(c.shards)
	counters := c.counters
	c.mu.Unlock()
	state := "complete"
	if !report.Complete {
		state = "incomplete (interrupted or failed; resume to finish)"
	}
	c.progressf("cluster: %s: %d samples over %d/%d shards (%d leases granted, %d expired, %d reassigned), %s\n",
		report.Name, samples, completed, total,
		counters.LeasesGranted, counters.LeasesExpired, counters.LeasesReassigned, state)
	return report, err
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.Status())
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"cluster": c.Status()})
}

// Status snapshots the lease table, worker liveness and counters.
func (c *Coordinator) Status() Status {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		Name:     c.spec.Name,
		SpecHash: c.specHash,
		Done:     c.finished,
		Samples:  c.set.Len(),
		Counters: c.counters,
	}
	for _, s := range c.shards {
		worker := ""
		if s.worker != nil {
			worker = s.worker.url
		}
		st.Shards = append(st.Shards, ShardStatus{
			ID: s.ID, Lo: s.Lo, Hi: s.Hi, State: s.state, Attempts: s.attempts, Worker: worker,
		})
	}
	for _, w := range c.workers {
		ws := WorkerStatus{URL: w.url, ActiveLeases: w.active, ConsecFails: w.consecFails, LastContactMs: -1}
		switch {
		case w.active > 0:
			ws.State = "busy"
		case now.Before(w.backoffUntil):
			ws.State = "backoff"
		default:
			ws.State = "idle"
		}
		if !w.lastContact.IsZero() {
			ws.LastContactMs = now.Sub(w.lastContact).Milliseconds()
		}
		st.Workers = append(st.Workers, ws)
	}
	return st
}

func (c *Coordinator) emit(ev Event) {
	if ev.Type != "" && c.cfg.OnEvent != nil {
		c.cfg.OnEvent(ev)
	}
}

func (c *Coordinator) progressf(format string, args ...any) {
	if c.cfg.Progress != nil {
		fmt.Fprintf(c.cfg.Progress, format, args...)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
