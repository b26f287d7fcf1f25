package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/protocols"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// Serve load shape. The repository holds no recorded radiosimd traffic,
// so the shape is a stated design point (README.md gives the
// measurements behind it). Requests are offered open-loop at a fixed
// rate, evenly spaced; every block of 16 consecutive requests holds each
// algorithm four times, once of them on the streaming endpoint, in an
// order drawn from the seed. Graph keys are Zipf-skewed over three times
// the server's 32-entry graph cache, so about three lookups in four hit
// (reads) and one misses (a graph build).
const (
	// serveRate is about a quarter of the mix's closed-loop capacity on
	// the server's 2 workers and nproc connections (serve.capacity_rps,
	// about 330 req/s on the reference machine), so a request seldom
	// waits for a worker and req_p50_ms measures service time.
	serveRate     = 80.0 // requests per second
	serveKeys     = 96
	serveZipfS    = 1.1
	serveD        = 20
	serveGraphTag = 1 << 20
)

var serveAlgos = []string{"distributed", "decay", "aloha", "centralized"}

// serveW is the radiosimd latency path: an open loop of POST /v1/run and
// /v1/run/stream against serve.NewServer(...).Handler() on a loopback
// listener. Set-up boots the server and warms it with one closed-loop
// request per algorithm on the hottest keys.
type serveW struct {
	cfg  config
	reqs []serveReq

	srv    *serve.Server
	hs     *http.Server
	served chan struct{}
	url    string
	client *http.Client

	outs []outcome
}

type serveReq struct {
	due    time.Duration
	stream bool
	body   serve.RunRequest
}

type outcome struct {
	sent, done time.Duration // since the loop started
	status     int
	resp       serve.RunResponse
	err        error
}

func newServe(cfg config) workload {
	s := &serveW{cfg: cfg}
	s.reqs = serveSchedule(cfg.seed, cfg.seconds, cfg.short)
	return s
}

// serveN is the graph size of every key: a cached run's server time
// (about 5 ms) is then more than ten times the loopback transport, and
// the cache's 32 graphs (11 MB of CSR) exceed the per-core L2.
func serveN(short bool) int {
	if short {
		return 400
	}
	return 4000
}

// serveSchedule draws the request list for a window from the seed.
func serveSchedule(seed uint64, seconds float64, short bool) []serveReq {
	rng := rand.New(rand.NewPCG(seed, 0x5e7e))
	zipf := rand.NewZipf(rng, serveZipfS, 1, serveKeys-1)
	total := int(seconds * serveRate)
	out := make([]serveReq, 0, total)
	for len(out) < total {
		for _, j := range rng.Perm(16)[:min(16, total-len(out))] {
			out = append(out, serveReq{
				due:    time.Duration(float64(len(out)) / serveRate * float64(time.Second)),
				stream: j%4 == 0,
				body: serve.RunRequest{
					Generator: "gnp-connected",
					N:         serveN(short),
					D:         serveD,
					GraphSeed: seed*serveGraphTag + zipf.Uint64(),
					Algo:      serveAlgos[j/4],
					Seed:      rng.Uint64N(1<<32) + 1,
				},
			})
		}
	}
	return out
}

func (s *serveW) setup() error {
	s.close()
	s.srv = serve.NewServer(serve.Config{Workers: 2})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.url = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv.Handler()}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		s.hs.Serve(ln)
	}()
	s.client = &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc},
	}
	// Warm-up: the hottest keys (Zipf ranks 0..15) once per algorithm,
	// one request at a time.
	var warm []serveReq
	for key := 0; key < 16; key++ {
		for i, algo := range serveAlgos {
			warm = append(warm, serveReq{stream: i == 0, body: serve.RunRequest{Generator: "gnp-connected", N: serveN(s.cfg.short), D: serveD,
				GraphSeed: s.cfg.seed*serveGraphTag + uint64(key), Algo: algo, Seed: uint64(key + 1)}})
		}
	}
	for i := range warm {
		var o outcome
		s.do(&warm[i], &o)
		if err := o.failure(); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// do sends one request and reads the whole response.
func (s *serveW) do(r *serveReq, o *outcome) {
	body, err := json.Marshal(&r.body)
	if err != nil {
		o.err = err
		return
	}
	path := "/v1/run"
	if r.stream {
		path = "/v1/run/stream"
	}
	resp, err := s.client.Post(s.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return
	}
	defer resp.Body.Close()
	o.status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return
	}
	if !r.stream {
		o.err = json.NewDecoder(resp.Body).Decode(&o.resp)
		return
	}
	// The stream is JSONL round records, then a {"type":"result"} trailer.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var last []byte
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	if o.err = sc.Err(); o.err != nil {
		return
	}
	var trailer struct {
		Type   string            `json:"type"`
		Result serve.RunResponse `json:"result"`
		Error  string            `json:"error"`
	}
	if o.err = json.Unmarshal(last, &trailer); o.err != nil {
		return
	}
	if trailer.Type != "result" || trailer.Error != "" {
		o.err = fmt.Errorf("stream trailer %q: %s", trailer.Type, trailer.Error)
	}
	o.resp = trailer.Result
}

func (o *outcome) failure() error {
	switch {
	case o.err != nil:
		return o.err
	case o.status != http.StatusOK:
		return fmt.Errorf("status %d", o.status)
	case !o.resp.Completed:
		return errors.New("broadcast did not complete")
	}
	return nil
}

// loop offers the schedule open-loop: request i is sent at its due time
// whether or not earlier ones have finished (up to 1024 in flight).
func (s *serveW) loop(reqs []serveReq) ([]outcome, time.Duration) {
	outs := make([]outcome, len(reqs))
	sem := make(chan struct{}, 1024)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range reqs {
		if d := reqs[i].due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			o := &outs[i]
			o.sent = time.Since(start)
			s.do(&reqs[i], o)
			o.done = time.Since(start)
		}()
	}
	wg.Wait()
	return outs, time.Since(start)
}

// capacity offers the requests closed-loop on nproc connections, each
// sending its next request as soon as the previous one returns, and
// returns the completed requests per second: the rate the mix sustains
// on the server's 2 workers with this client. Every response must pass
// the timed run's checks.
func (s *serveW) capacity(reqs []serveReq) (float64, error) {
	outs := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for range nproc {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(reqs); i = int(next.Add(1) - 1) {
				s.do(&reqs[i], &outs[i])
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	for i := range outs {
		if err := outs[i].failure(); err != nil {
			return 0, fmt.Errorf("closed-loop request %d: %w", i, err)
		}
	}
	return float64(len(reqs)) / wall.Seconds(), nil
}

func (s *serveW) metricsSnapshot() (serve.Metrics, error) {
	var m serve.Metrics
	resp, err := s.client.Get(s.url + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

func (s *serveW) measure(window time.Duration) (*measurement, error) {
	outs, wall := s.loop(s.reqs)
	s.outs = outs
	m := &measurement{wall: wall, attempted: len(outs)}
	var late []float64
	for i, o := range outs {
		m.opMs = append(m.opMs, float64((o.done-s.reqs[i].due).Nanoseconds())/1e6)
		late = append(late, float64((o.sent-s.reqs[i].due).Nanoseconds())/1e6)
		if o.failure() != nil {
			m.failed++
		} else {
			m.work++
		}
	}
	n := len(m.opMs)
	m.named = []namedValue{
		{"req_p50_ms", median(m.opMs), "ms", fmt.Sprintf("%d requests, %.0f/s offered open-loop", n, serveRate)},
		{"req_p99_ms", percentile(m.opMs, 0.99), "ms", fmt.Sprintf("%d samples beyond it", n-int(0.99*float64(n)))},
		{"late_p99_ms", percentile(late, 0.99), "ms", "generator lateness (diagnostic)"},
	}
	return m, nil
}

// check: every response is a completed 200, and every 20th one equals an
// in-process repro.RunContext on the same graph and seed.
func (s *serveW) check() error {
	for i := range s.outs {
		if err := s.outs[i].failure(); err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}
	}
	graphs := map[serve.GraphKey]*repro.Graph{}
	for i := 0; i < len(s.outs); i += 20 {
		b := s.reqs[i].body
		key := serve.GraphKey{Generator: b.Generator, N: b.N, D: b.D, Seed: b.GraphSeed}
		g := graphs[key]
		if g == nil {
			var ok bool
			if g, ok = repro.ConnectedGnpDegree(b.N, b.D, repro.NewRand(b.GraphSeed)); !ok {
				return fmt.Errorf("request %d: no connected graph", i)
			}
			graphs[key] = g
		}
		opts, err := facadeOptions(&b, g)
		if err != nil {
			return err
		}
		res, err := repro.RunContext(context.Background(), g, b.Src, opts...)
		if err != nil {
			return fmt.Errorf("request %d: in-process run: %w", i, err)
		}
		if err := sameResult(res, s.outs[i].resp); err != nil {
			return fmt.Errorf("request %d (%s): %w", i, b.Algo, err)
		}
	}
	return nil
}

// facadeOptions are the repro.Run options the server assembles for a
// request (seed 0 means 1).
func facadeOptions(b *serve.RunRequest, g *repro.Graph) ([]repro.Option, error) {
	seed := max(b.Seed, 1)
	switch b.Algo {
	case "distributed":
		return []repro.Option{repro.WithDegree(b.D), repro.WithSeed(seed)}, nil
	case "decay":
		return []repro.Option{repro.WithProtocol(protocols.NewDecay(b.N)), repro.WithSeed(seed)}, nil
	case "aloha":
		return []repro.Option{repro.WithProtocol(protocols.NewAloha(b.D)), repro.WithSeed(seed)}, nil
	}
	sched, err := repro.BuildSchedule(g, b.Src, b.D, seed)
	return []repro.Option{repro.WithSchedule(sched)}, err
}

func sameResult(res repro.Result, r serve.RunResponse) error {
	if res.Completed != r.Completed || res.Rounds != r.Rounds || res.Informed != r.Informed ||
		res.Stats.Transmissions != r.Transmissions || res.Stats.Deliveries != r.Deliveries || res.Stats.Collisions != r.Collisions {
		return fmt.Errorf("in-process %+v vs served %+v: %w", res.Stats, r, errMismatch)
	}
	return nil
}

// traced offers the same open loop again and breaks each request's
// latency into server time (elapsed_ms, pool wait included) and
// transport; then it replays the first third of the schedule serially
// through the layers the handler calls — untraced, then traced — and
// checks each replayed result equals the served one.
func (s *serveW) traced(tr *tracer, m metrics) error {
	before, err := s.metricsSnapshot()
	if err != nil {
		return err
	}
	outs, _ := s.loop(s.reqs)
	after, err := s.metricsSnapshot()
	if err != nil {
		return err
	}
	s.outs = outs
	if err := s.check(); err != nil {
		return err
	}
	var lat, server, transport, late []float64
	for i, o := range outs {
		lat = append(lat, float64((o.done-s.reqs[i].due).Nanoseconds())/1e6)
		server = append(server, o.resp.ElapsedMs)
		transport = append(transport, float64((o.done-o.sent).Nanoseconds())/1e6-o.resp.ElapsedMs)
		late = append(late, float64((o.sent-s.reqs[i].due).Nanoseconds())/1e6)
	}
	m.set("serve.server_p50_ms", median(server))
	m.set("serve.transport_p50_ms", median(transport))
	m.set("load.req_p99_ms", percentile(lat, 0.99))
	m.set("load.late_p99_ms", percentile(late, 0.99))
	hits := float64(after.Cache.Hits - before.Cache.Hits)
	lookups := hits + float64(after.Cache.Misses-before.Cache.Misses+after.Cache.Coalesced-before.Cache.Coalesced)
	if lookups > 0 {
		m.set("serve.cache_hit_frac", hits/lookups)
	}
	rejected := float64(after.Pool.Rejected - before.Pool.Rejected)
	m.set("serve.rejected_frac", rejected/float64(len(outs)))

	capacity, err := s.capacity(s.reqs)
	if err != nil {
		return err
	}
	m.set("serve.capacity_rps", capacity)
	m.set("serve.utilisation", serveRate/capacity)

	replay := s.reqs[:max(len(s.reqs)/3, 1)]
	var execBefore, execAfter exec.Stats
	overhead, err := tracingOverhead(tr, func() error { return s.replay(nil, replay) }, func() error {
		execBefore = exec.Snapshot()
		defer func() { execAfter = exec.Snapshot() }()
		return s.replay(tr, replay)
	})
	if err != nil {
		return err
	}
	fillExecMetrics(execBefore, execAfter, m)
	fillEngineMetrics(tr, m)
	m.set("tracer.overhead_s", overhead)
	return nil
}

// replay runs requests serially in-process the way the handler does:
// graph through an LRU of the server's size (gen on a miss), schedule
// build for centralized, a pooled engine from exec, the facade run, and
// for stream requests a trace.JSONLWriter observer.
func (s *serveW) replay(tr *tracer, reqs []serveReq) error {
	cache := newGraphLRU(32)
	for i := range reqs {
		tr.nextOp()
		b := reqs[i].body
		key := serve.GraphKey{Generator: b.Generator, N: b.N, D: b.D, Seed: b.GraphSeed}
		g := cache.get(key)
		if g == nil {
			var err error
			if g, err = connectedGraph(tr, b.N, b.D, xrand.New(b.GraphSeed)); err != nil {
				return err
			}
			cache.put(key, g)
		}
		seed := max(b.Seed, 1)
		var opts []repro.Option
		var engine *repro.Engine
		switch b.Algo {
		case "centralized":
			var sched *repro.Schedule
			var err error
			tr.do("core", func() {
				sched, _, err = core.BuildCentralizedSchedule(g, b.Src, b.D, core.DefaultCentralizedConfig(seed))
			})
			if err != nil {
				return err
			}
			tr.add("core.schedules", 1)
			opts = []repro.Option{repro.WithSchedule(sched)}
		default:
			var err error
			if opts, err = facadeOptions(&b, g); err != nil {
				return err
			}
			tr.do("exec", func() { engine = exec.AcquireEngine(g) })
			opts = append(opts, repro.WithEngine(engine))
		}
		if reqs[i].stream {
			opts = append(opts, repro.WithObserver(&spanObserver{tr: tr, jw: trace.NewJSONLWriter(io.Discard)}))
		}
		var res repro.Result
		var err error
		tr.engine(1, func() string {
			res, err = repro.RunContext(context.Background(), g, b.Src, opts...)
			return "radio"
		})
		if engine != nil {
			engine.Attach(nil)
			tr.do("exec", func() { exec.ReleaseEngine(engine) })
		}
		if err != nil {
			return err
		}
		tr.add("radio.rounds", float64(res.Rounds))
		if err := sameResult(res, s.outs[i].resp); err != nil {
			return fmt.Errorf("replayed request %d (%s): %w", i, b.Algo, err)
		}
	}
	return nil
}

// spanObserver forwards round records to a trace.JSONLWriter, flushing
// each like the streaming handler, with a span around every call.
type spanObserver struct {
	tr *tracer
	jw *trace.JSONLWriter
}

func (o *spanObserver) record(fn func()) {
	o.tr.add("trace.records", 1)
	o.tr.do("trace", func() {
		fn()
		o.jw.Flush()
	})
}

func (o *spanObserver) BeginRun(info trace.RunInfo) { o.record(func() { o.jw.BeginRun(info) }) }
func (o *spanObserver) Round(r trace.RoundRecord)   { o.record(func() { o.jw.Round(r) }) }
func (o *spanObserver) EndRun(sum trace.Summary)    { o.record(func() { o.jw.EndRun(sum) }) }

// graphLRU mirrors the serving layer's graph cache policy.
type graphLRU struct {
	cap   int
	order []serve.GraphKey // most recent last
	m     map[serve.GraphKey]*graph.Graph
}

func newGraphLRU(capacity int) *graphLRU {
	return &graphLRU{cap: capacity, m: map[serve.GraphKey]*graph.Graph{}}
}

func (c *graphLRU) touch(k serve.GraphKey) {
	for i, o := range c.order {
		if o == k {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	c.order = append(c.order, k)
}

func (c *graphLRU) get(k serve.GraphKey) *graph.Graph {
	g := c.m[k]
	if g != nil {
		c.touch(k)
	}
	return g
}

func (c *graphLRU) put(k serve.GraphKey, g *graph.Graph) {
	c.m[k] = g
	c.touch(k)
	if len(c.order) > c.cap {
		old := c.order[0]
		c.order = c.order[1:]
		exec.Forget(c.m[old])
		delete(c.m, old)
	}
}

func (s *serveW) close() {
	if s.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	s.srv.Shutdown(time.Second)
	<-s.served
	s.client.CloseIdleConnections()
	s.hs = nil
}
