package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"time"

	"stitchroute/internal/core"
	"stitchroute/internal/drc"
	"stitchroute/internal/eco"
	"stitchroute/internal/harness"
	"stitchroute/internal/netlist"
	"stitchroute/internal/nlio"
	"stitchroute/internal/plan"
	"stitchroute/internal/server"
)

// The job_server traffic: jobClients closed-loop clients, each sending
// per pass jobColdPerClient cache-miss submissions and, after every third,
// resubmissions of that circuit and the one before (cache hits) and an
// ECO patch fork of the one before those. The mix is assumed, as the
// repository records no job traffic: two hits per three uploads put the
// inline write-prep of the cache-hit path in every third op, and one
// fork per three uploads sends the representative ECO of
// cmd/benchjson -stage eco, a single-pin local move, through the fork
// path six times a pass.
const (
	jobClients       = 2
	jobColdPerClient = 9
)

// jobSpecs is the pool of small-circuit shapes the clients upload.
func jobSpecs() []harness.GenSpec {
	return append(harness.FullGrid(), harness.CongestedGrid()...)
}

// jobSpec is the spec of one cold submission; every (seed, input,
// client, index) gives a distinct circuit.
func jobSpec(seed int64, input, client, i int) harness.GenSpec {
	specs := jobSpecs()
	n := client*jobColdPerClient + i
	s := specs[(n+input)%len(specs)]
	s.Seed = seed*inputStride + int64(input*jobClients*jobColdPerClient+n)
	return s
}

func jobsInputHash(seed int64) (string, error) {
	return nlio.CircuitHash(harness.Generate(jobSpec(seed, 0, 0, 0)))
}

// jobsRunner runs the job_server workload against the server's HTTP API
// on a loopback listener, with the server's default configuration. Each
// pass runs against a fresh server, so an input's uploads miss the cache
// on every repeat as on its first pass.
type jobsRunner struct {
	api     *endpoint // the server the next pass runs against
	client  *http.Client
	workers int                        // resolved server pool size
	cache   int                        // resolved result-cache capacity
	ops     *inputCache[[][]*clientOp] // per client
}

// endpoint is a server with the default configuration behind a loopback
// listener.
type endpoint struct {
	srv    *server.Server
	hs     *http.Server
	served chan struct{}
	base   string
}

func startEndpoint() (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &endpoint{
		srv:    server.New(server.Config{}),
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
	}
	e.hs = &http.Server{Handler: e.srv.Handler()}
	go func() {
		defer close(e.served)
		_ = e.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return e, nil
}

// stop shuts the listener and the server down and waits for both.
func (e *endpoint) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = e.hs.Shutdown(ctx) // best effort: the process is ending or restarting it
	<-e.served
	_ = e.srv.Shutdown(ctx)
}

func setupJobs(ctx context.Context, seed int64) (runner, error) {
	api, err := startEndpoint()
	if err != nil {
		return nil, err
	}
	r := &jobsRunner{
		api:    api,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: jobClients}},
	}
	if err := r.readMetrics(ctx); err != nil {
		r.close()
		return nil, err
	}
	r.ops, err = newInputCache(func(i int) ([][]*clientOp, error) {
		lists := make([][]*clientOp, jobClients)
		for c := range lists {
			var err error
			if lists[c], err = clientOps(seed, i, c); err != nil {
				return nil, err
			}
		}
		return lists, nil
	})
	if err != nil {
		r.close()
		return nil, err
	}
	// One warm-up job on a circuit no pass submits.
	warm := harness.ShortGrid()[0]
	warm.Seed = -1 - seed
	var b bytes.Buffer
	if err := nlio.Write(&b, harness.Generate(warm)); err != nil {
		r.close()
		return nil, err
	}
	if _, err := r.runJob(ctx, &clientOp{kind: "cold", text: b.Bytes()}, "", nil, 0, 0, newPassResult()); err != nil {
		r.close()
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	return r, nil
}

// prepare makes the input's op lists ready and replaces the server with
// a fresh one.
func (r *jobsRunner) prepare(_ context.Context, input int) error {
	if err := r.ops.prepare(input); err != nil {
		return err
	}
	r.close()
	var err error
	r.api, err = startEndpoint()
	return err
}

// readMetrics records the pool size and cache capacity the server
// resolved from its defaults.
func (r *jobsRunner) readMetrics(ctx context.Context) error {
	body, _, err := r.do(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return err
	}
	for _, line := range strings.Split(string(body), "\n") {
		k, v, _ := strings.Cut(line, " ")
		switch k {
		case "workers":
			r.workers, err = strconv.Atoi(v)
		case "cache_capacity":
			r.cache, err = strconv.Atoi(v)
		}
		if err != nil {
			return fmt.Errorf("/metrics line %q: %w", line, err)
		}
	}
	if r.workers == 0 {
		return errors.New("/metrics reports no worker count")
	}
	return nil
}

func (r *jobsRunner) provenance(p map[string]any) {
	p["server_workers"] = r.workers
	p["server_cache"] = r.cache
	p["clients"] = jobClients
}

func (r *jobsRunner) close() {
	if r.api != nil {
		r.api.stop()
		r.api = nil
	}
	r.client.CloseIdleConnections()
}

// do sends one request and returns the body of a 2xx response.
func (r *jobsRunner) do(ctx context.Context, method, path string, body []byte) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, method, r.api.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, resp.StatusCode, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return b, resp.StatusCode, nil
}

// clientOp is one op of a client's list.
type clientOp struct {
	kind   string // "cold", "resubmit" or "fork"
	c      *netlist.Circuit
	text   []byte
	script *eco.Script
	parent int   // index of the cold op a resubmit or fork refers to
	hpwl   int64 // of the circuit the job routes
}

// jobOut is one finished job, kept for the checks.
type jobOut struct {
	op     *clientOp
	view   server.JobView
	routes []plan.NetRoute
}

// clientOps builds one client's op list for an input.
func clientOps(seed int64, input, client int) ([]*clientOp, error) {
	rng := rand.New(rand.NewSource(seed*inputStride + int64(input*jobClients+client) + 0x5e7))
	var ops []*clientOp
	var cold []int
	for i := 0; i < jobColdPerClient; i++ {
		c := harness.Generate(jobSpec(seed, input, client, i))
		var b bytes.Buffer
		if err := nlio.Write(&b, c); err != nil {
			return nil, err
		}
		cold = append(cold, len(ops))
		ops = append(ops, &clientOp{kind: "cold", c: c, text: b.Bytes(), hpwl: hpwl(c)})
		if i%3 == 2 {
			for _, j := range []int{cold[i-1], cold[i]} {
				ops = append(ops, &clientOp{kind: "resubmit", c: ops[j].c, text: ops[j].text, parent: j, hpwl: ops[j].hpwl})
			}
			fk := ops[cold[i-2]]
			script := &eco.Script{Edits: []eco.Edit{localEdit(rng, fk.c, 0)}}
			edited, err := script.Apply(fk.c)
			if err != nil {
				return nil, err
			}
			ops = append(ops, &clientOp{kind: "fork", c: fk.c, parent: cold[i-2], script: script, hpwl: hpwl(edited)})
		}
	}
	return ops, nil
}

func (r *jobsRunner) pass(ctx context.Context, k, input int, tr *tracer) (*passResult, error) {
	lists := r.ops.get(input)
	results := make([]*passResult, jobClients)
	outs := make([][]*jobOut, jobClients)
	var wg sync.WaitGroup
	sw := startWatch()
	for c := range lists {
		results[c] = newPassResult()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			outs[c] = r.runClient(ctx, lists[c], tr, results[c])
		}(c)
	}
	wg.Wait()
	p := newPassResult()
	sw.stop(p)
	for _, q := range results {
		p.attempted += q.attempted
		p.failed += q.failed
		p.opMS = append(p.opMS, q.opMS...)
		p.q = p.q.plus(q.q)
		for n, v := range q.counters {
			p.counters[n] += v
		}
		for n, s := range q.samples {
			p.samples[n] = append(p.samples[n], s...)
		}
	}
	if k != 0 {
		return p, nil
	}
	for _, list := range outs {
		if err := r.check(ctx, list); err != nil {
			return p, err
		}
	}
	return p, nil
}

// runClient runs one client's op list in a closed loop and returns every
// op's finished job, nil for a failed op.
func (r *jobsRunner) runClient(ctx context.Context, ops []*clientOp, tr *tracer, p *passResult) []*jobOut {
	outs := make([]*jobOut, len(ops))
	for i, o := range ops {
		var parentID string
		if o.kind == "fork" {
			if outs[o.parent] == nil {
				p.op(0, errors.New("fork of a failed job"))
				continue
			}
			parentID = outs[o.parent].view.ID
		}
		op := tr.newOp()
		root := tr.begin("bench.job", 0, op)
		out, err := r.runJob(ctx, o, parentID, tr, op, root, p)
		tr.end(root)
		if err == nil {
			outs[i] = out
		}
	}
	return outs
}

// runJob submits one op's job, polls it to a terminal state, and
// downloads and parses its routes. The op's latency runs from the submit
// until the client sees the terminal state.
func (r *jobsRunner) runJob(ctx context.Context, o *clientOp, parentID string, tr *tracer, op, root int, p *passResult) (*jobOut, error) {
	t0 := time.Now()
	fail := func(err error) (*jobOut, error) {
		p.op(0, err)
		return nil, err
	}
	path := "/v1/jobs"
	var req any = server.JobRequest{Circuit: string(o.text), Fracture: "lshape", Stencil: true}
	if o.kind == "fork" {
		path += "/" + parentID + "/eco"
		req = server.ECORequest{Edits: o.script.Edits, Mode: "patch"}
	} else {
		p.counters["server.submits"]++
		p.counters["nlio.bytes_in"] += float64(len(o.text))
	}
	body, err := json.Marshal(req)
	if err != nil {
		return fail(err)
	}
	sp := tr.begin("server.submit", root, op)
	b, code, err := r.do(ctx, http.MethodPost, path, body)
	tr.end(sp)
	p.samples["server.submit"] = append(p.samples["server.submit"], msSince(t0))
	if err != nil {
		if code != 0 {
			p.counters["server.rejected"]++
		}
		return fail(err)
	}
	var v server.JobView
	if err := json.Unmarshal(b, &v); err != nil {
		return fail(err)
	}
	for delay := 500 * time.Microsecond; !v.State.Terminal(); delay = min(delay*3/2, 4*time.Millisecond) {
		time.Sleep(delay)
		sp = tr.begin("server.poll", root, op)
		b, _, err = r.do(ctx, http.MethodGet, "/v1/jobs/"+v.ID, nil)
		tr.end(sp)
		if err != nil {
			return fail(err)
		}
		v = server.JobView{}
		if err := json.Unmarshal(b, &v); err != nil {
			return fail(err)
		}
	}
	latency := time.Since(t0)
	jobSpans(tr, root, op, v, p)
	if v.State != server.StateDone || v.Summary == nil {
		return fail(fmt.Errorf("job %s ended %s: %s", v.ID, v.State, v.Error))
	}

	sp = tr.begin("server.routes_get", root, op)
	gs := time.Now()
	b, _, err = r.do(ctx, http.MethodGet, "/v1/jobs/"+v.ID+"/routes", nil)
	tr.end(sp)
	p.samples["server.routes_get"] = append(p.samples["server.routes_get"], msSince(gs))
	if err != nil {
		return fail(err)
	}
	sp = tr.begin("nlio.read", root, op)
	routes, err := nlio.ReadRoutes(bytes.NewReader(b))
	tr.end(sp)
	if err != nil {
		return fail(err)
	}
	p.op(latency, nil)
	jobCounters(p, v, o.hpwl)
	return &jobOut{op: o, view: v, routes: routes}, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// jobSpans records the server-side life of a job from its view's
// stamps: queue wait, then the run, split by the router's own stage
// times (or, for an ECO fork, the incremental reroute's time).
func jobSpans(tr *tracer, root, op int, v server.JobView, p *passResult) {
	if v.CacheHit || v.Started == nil || v.Finished == nil {
		return
	}
	p.samples["server.queue_wait"] = append(p.samples["server.queue_wait"], float64(v.Started.Sub(v.Created))/float64(time.Millisecond))
	p.samples["server.run"] = append(p.samples["server.run"], float64(v.Finished.Sub(*v.Started))/float64(time.Millisecond))
	tr.add("server.queue_wait", root, op, v.Created, *v.Started)
	run := tr.add("server.run", root, op, *v.Started, *v.Finished)
	if v.Summary == nil {
		return
	}
	st := v.Summary.StageSeconds
	dur := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	if v.ECO != nil {
		ecoSpan := tr.add("eco.patch", run, op, *v.Started, v.Started.Add(dur(v.ECO.ECOSeconds)))
		tr.stages(ecoSpan, op, *v.Started, []string{"eco.patch_detail"}, []time.Duration{dur(st["detail"])})
		return
	}
	tr.stages(run, op, *v.Started, []string{"global", "layer", "track", "detail"},
		[]time.Duration{dur(st["global"]), dur(st["layer"]), dur(st["track"]), dur(st["detail"])})
}

// jobCounters adds a done job's counts and output quality; hpwl is that
// of the circuit the job routed.
func jobCounters(p *passResult, v server.JobView, hpwl int64) {
	cnt, s := p.counters, v.Summary
	if v.CacheHit {
		cnt["server.cache_hits"]++
	}
	if v.ECO != nil {
		cnt["eco.patch_rerouted"] += float64(v.ECO.DetailRouted)
		cnt["eco.detail_reused"] += float64(v.ECO.DetailReused)
		cnt["eco.detail_routed"] += float64(v.ECO.DetailRouted)
	}
	cnt["global.tvof"] += float64(s.TVOF)
	cnt["track.bad_ends"] += float64(s.BadEnds)
	cnt["detail.ripped_nets"] += float64(s.RippedNets)
	cnt["detail.failed_nets"] += float64(s.FailedNets)
	cnt["drc.short_polygons"] += float64(s.ShortPolygons)
	cnt["drc.via_violations"] += float64(s.ViaViolations)
	q := quality{nets: v.Nets, routed: s.RoutedNets, hpwl: hpwl, wirelength: s.Wirelength,
		sp: int64(s.ShortPolygons), vv: int64(s.ViaViolations), failedNets: int64(s.FailedNets)}
	if wp := v.WritePrep; wp != nil {
		q.shots = int64(wp.Shots)
		cnt["fracture.lshots"] += float64(wp.LShots)
		if wp.Stencil != nil {
			cnt["stencil.characters"] += float64(wp.Stencil.Characters)
		}
	}
	p.q = p.q.plus(q)
}

// check verifies one client's finished jobs against the library run in
// process: a cold job's downloaded routes equal a local cold route and
// its summary equals drc.Check of them; a resubmission is a cache hit
// returning the same routes and shots; an ECO fork equals a local patch
// reroute of the same parent and script.
func (r *jobsRunner) check(ctx context.Context, outs []*jobOut) error {
	cfg := core.StitchAware()
	local := make(map[int]*core.Result)
	circuits := make(map[int]*netlist.Circuit)
	for i, o := range outs {
		if o == nil {
			continue
		}
		v := o.view
		switch o.op.kind {
		case "cold":
			if v.CacheHit {
				return fmt.Errorf("job %s: a first submission was a cache hit", v.ID)
			}
			c, err := nlio.Read(bytes.NewReader(o.op.text))
			if err != nil {
				return err
			}
			res, err := core.RouteContext(ctx, c, cfg)
			if err != nil {
				return err
			}
			local[i], circuits[i] = res, c
			if err := sameRoutes(o.routes, res.Routes, "job "+v.ID+" vs local route"); err != nil {
				return err
			}
			rep := drc.Check(c, o.routes)
			s := v.Summary
			got := []int64{int64(s.RoutedNets), int64(s.ViaViolations), int64(s.ShortPolygons), s.Wirelength, int64(s.Vias)}
			want := []int64{int64(rep.RoutedNets), int64(rep.ViaViolations), int64(rep.ShortPolygons), rep.Wirelength, int64(rep.Vias)}
			if !reflect.DeepEqual(got, want) {
				return fmt.Errorf("job %s: summary %v differs from drc.Check of its routes %v", v.ID, got, want)
			}
		case "resubmit":
			first := outs[o.op.parent]
			if first == nil {
				continue
			}
			if !v.CacheHit {
				return fmt.Errorf("job %s: a resubmission missed the cache", v.ID)
			}
			if err := sameRoutes(o.routes, first.routes, "cache hit "+v.ID); err != nil {
				return err
			}
			if v.WritePrep == nil || first.view.WritePrep == nil || v.WritePrep.ShotsHash != first.view.WritePrep.ShotsHash {
				return fmt.Errorf("job %s: cache hit write-prep differs from the first run's", v.ID)
			}
		case "fork":
			parent, c := local[o.op.parent], circuits[o.op.parent]
			if parent == nil {
				continue
			}
			res, err := eco.ReroutePatchContext(ctx, parent, c, o.op.script, cfg)
			if err != nil {
				return err
			}
			if err := sameRoutes(o.routes, res.Routes, "fork "+v.ID+" vs local patch"); err != nil {
				return err
			}
		}
	}
	return nil
}
