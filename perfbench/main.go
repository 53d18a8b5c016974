// Command perfbench is the repository's end-to-end benchmark. It builds
// seeded inputs, drives the router only through its public calls (nlio,
// core, drc, fracture, stencil, eco, and the server's HTTP API on a
// loopback listener), checks the outputs, and prints one JSON result
// line:
//
//	bash perfbench/run.sh --workload chip_cold --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, taken from spans the
// benchmark records around its own calls (the program is not
// instrumented). See perfbench/README.md for every metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"stitchroute/internal/detail"
)

// heldOutSeed is reserved for confirming a performance claim after the
// change was written against other seeds; do not tune on it.
const heldOutSeed = 7919

// A run builds its set-up at least minSetups times and until the set-ups
// have used setupCPU of CPU time, at most maxSetups times; setup_s is the
// median of their reference times (see refSeconds) and the last one
// is measured. A set-up of a few tens of milliseconds is built many
// times, so its median holds.
const (
	minSetups = 5
	maxSetups = 40
	setupCPU  = time.Second
)

// setupInputs is how many inputs a set-up prepares.
const setupInputs = 5

// missMS is the latency recorded for a failed op: it misses any latency
// limit a run can test, since a run ends within 180 s.
const missMS = 1e6

// quality sums the routing-quality counts of a pass's outputs.
// hpwl is the summed half-perimeter wirelength of the routed circuits'
// nets, the lower bound the quality ratios divide by.
type quality struct {
	nets, routed                                int
	hpwl, wirelength, shots, sp, vv, failedNets int64
}

func (q quality) plus(o quality) quality {
	return quality{
		nets: q.nets + o.nets, routed: q.routed + o.routed, hpwl: q.hpwl + o.hpwl,
		wirelength: q.wirelength + o.wirelength, shots: q.shots + o.shots,
		sp: q.sp + o.sp, vv: q.vv + o.vv, failedNets: q.failedNets + o.failedNets,
	}
}

// passResult is the outcome of one pass over a workload's fixed op list.
type passResult struct {
	wall, cpu         time.Duration // the timed region only
	rssMB             float64       // peak resident set during the timed region
	opMS              []float64     // per-op latency; failed ops read missMS
	attempted, failed int
	q                 quality
	// counters are exact per-layer counts for the pass, keyed by metric
	// name; they repeat exactly for a given seed and input.
	counters map[string]float64
	// samples are per-layer latency samples in ms, keyed by metric name.
	samples map[string][]float64
}

func newPassResult() *passResult {
	return &passResult{counters: map[string]float64{}, samples: map[string][]float64{}}
}

// op records one op's outcome.
func (p *passResult) op(d time.Duration, err error) {
	p.attempted++
	if err != nil {
		p.failed++
		p.opMS = append(p.opMS, missMS)
		fmt.Fprintln(os.Stderr, "perfbench: op failed:", err)
		return
	}
	p.opMS = append(p.opMS, float64(d)/float64(time.Millisecond))
}

// runner is a workload after set-up.
type runner interface {
	// prepare readies a pass on input before the heap is collected and
	// the pass is timed.
	prepare(ctx context.Context, input int) error
	// pass runs pass k over the op list prepared for input, records
	// spans into tr when it is non-nil, and then checks the outputs
	// outside the timed region. It returns a nil result when the pass
	// could not run, and an error with a result when a check failed.
	pass(ctx context.Context, k, input int, tr *tracer) (*passResult, error)
	// provenance adds workload facts to the run's provenance line.
	provenance(p map[string]any)
	close()
}

// workload is one benchmark workload.
type workload struct {
	setup func(ctx context.Context, seed int64) (runner, error)
	// inputHash is the canonical hash of the first circuit the workload
	// generates for seed.
	inputHash func(seed int64) (string, error)
	// instances is the size of a run's fixed input set. Pass k runs input
	// k mod instances and a run makes at least one pass of each, so it
	// always measures the same instances for a seed, however many passes
	// fit in its window. The sizes let an untraced run pass over every
	// input once in 25-40 s on a 2-CPU host.
	instances int
}

var workloads = map[string]workload{
	"chip_cold":   {setupChip, chipInputHash, 8 * chipsPerSet},
	"eco_session": {setupECO, ecoInputHash, 32},
	"job_server":  {setupJobs, jobsInputHash, 20},
}

// inputCache holds a runner's prepared inputs. Set-up fills the first
// setupInputs; prepare builds any other on demand and drops every input
// but the one in use, so memory stays flat however many inputs a run has.
type inputCache[T any] struct {
	build func(i int) (T, error)
	ready map[int]T
}

func newInputCache[T any](build func(i int) (T, error)) (*inputCache[T], error) {
	c := &inputCache[T]{build: build, ready: map[int]T{}}
	for i := 0; i < setupInputs; i++ {
		v, err := build(i)
		if err != nil {
			return nil, err
		}
		c.ready[i] = v
	}
	return c, nil
}

// prepare makes input i ready and drops every other input.
func (c *inputCache[T]) prepare(i int) error {
	for j := range c.ready {
		if j != i {
			delete(c.ready, j)
		}
	}
	if _, ok := c.ready[i]; ok {
		return nil
	}
	v, err := c.build(i)
	if err != nil {
		return err
	}
	c.ready[i] = v
	return nil
}

// get returns input i, which prepare made ready.
func (c *inputCache[T]) get(i int) T { return c.ready[i] }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: chip_cold, eco_session or job_server")
	seed := flag.Int64("seed", 0, "workload seed")
	secs := flag.Int("seconds", 25, "measuring time in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := flag.String("out", ".bench_build", "directory the trace file is written to")
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*secs)*time.Second, *trace == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, window time.Duration, traced bool, outDir string) error {
	w, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	if err := checkSeedSensitivity(w, seed); err != nil {
		return err
	}
	ctx := context.Background()

	// Every timed region is bracketed by measurements of the reference
	// kernel; the first run of the kernel grows the heap and is discarded.
	refCPU()
	setupRefs := []time.Duration{refCPU()}
	var setupS []float64
	var setupTotal time.Duration
	var r runner
	for i := 0; i < maxSetups && (i < minSetups || setupTotal < setupCPU); i++ {
		if r != nil {
			r.close()
		}
		runtime.GC()
		c0 := cpuTime()
		r, err = w.setup(ctx, seed)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		d := cpuTime() - c0
		setupTotal += d
		runtime.GC()
		setupRefs = append(setupRefs, refCPU())
		setupS = append(setupS, refSeconds(d, setupRefs[i], setupRefs[i+1]))
	}
	defer r.close()

	prov := map[string]any{
		"workload": name, "seed": seed, "held_out_seed": heldOutSeed,
		"go": runtime.Version(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"detail_workers": detail.ResolveWorkers(0), "trace": traced,
	}
	r.provenance(prov)
	pb, _ := json.Marshal(prov)
	fmt.Println("provenance", string(pb))

	// Untraced runs time every pass. Traced runs alternate an untraced
	// and a traced pass over the same input, so the pair gives the
	// tracing overhead and the traced passes give the per-layer numbers.
	var tr *tracer
	n := w.instances
	minPasses := n
	if traced {
		tr = newTracer()
		minPasses = 4
	}
	var passes []*passResult
	var withTrace []float64
	// Per input, the untraced passes' wall, CPU and reference CPU times
	// and peak resident sets.
	plain, plainCPU, plainRef, plainRSS := make([][]float64, n), make([][]float64, n), make([][]float64, n), make([][]float64, n)
	// refs[k] is the reference kernel's CPU time measured just before
	// pass k; one more follows the last pass.
	var refs []time.Duration
	var allocMB, gcs []float64
	var checkErr error
	start := time.Now()
	for k := 0; ; k++ {
		input, ptr := passInput(k, n, traced), (*tracer)(nil)
		if traced && k%2 == 1 {
			ptr = tr
			tr.setPass(k)
		}
		if err := r.prepare(ctx, input); err != nil {
			return fmt.Errorf("pass %d: %w", k, err)
		}
		// Each timed region starts from a collected heap whose free pages
		// went back to the OS, so no pass pays for the garbage of the one
		// before or of its own preparation, and its resident-set peak is
		// its own, as in a process that ran only this pass.
		debug.FreeOSMemory()
		refs = append(refs, refCPU())
		if err := resetPeakRSS(); err != nil {
			return err
		}
		var m0 runtime.MemStats
		if ptr != nil {
			runtime.ReadMemStats(&m0)
		}
		p, err := r.pass(ctx, k, input, ptr)
		if p == nil {
			return fmt.Errorf("pass %d: %w", k, err)
		}
		if p.rssMB, err = peakRSSMB(); err != nil {
			return err
		}
		if err != nil {
			checkErr = fmt.Errorf("pass %d: %w", k, err)
		}
		if ptr != nil {
			var m1 runtime.MemStats
			runtime.ReadMemStats(&m1)
			allocMB = append(allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
			gcs = append(gcs, float64(m1.NumGC-m0.NumGC))
			withTrace = append(withTrace, p.wall.Seconds())
		}
		passes = append(passes, p)
		if checkErr != nil || (time.Since(start) >= window && k+1 >= minPasses) {
			break
		}
	}
	runtime.GC()
	refs = append(refs, refCPU())
	var refS []float64
	for k, p := range passes {
		refS = append(refS, refs[k].Seconds())
		if traced && k%2 == 1 {
			continue
		}
		input := passInput(k, n, traced)
		plain[input] = append(plain[input], p.wall.Seconds())
		plainCPU[input] = append(plainCPU[input], p.cpu.Seconds())
		plainRef[input] = append(plainRef[input], refSeconds(p.cpu, refs[k], refs[k+1]))
		plainRSS[input] = append(plainRSS[input], p.rssMB)
	}

	res := result{Correct: checkErr == nil, Metrics: map[string]metric{}}
	var ops []float64
	for _, p := range passes {
		res.Attempted += p.attempted
		res.Failed += p.failed
		ops = append(ops, p.opMS...)
	}
	errRate := 0.0
	if res.Attempted > 0 {
		errRate = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Printf("summary passes=%d ops=%d failed=%d error_rate=%g\n", len(passes), res.Attempted, res.Failed, errRate)
	fmt.Printf("pass CPU s by input: %.3f\n", plainCPU)
	fmt.Printf("pass reference s by input: %.3f\n", plainRef)
	fmt.Printf("reference kernel CPU s: quartiles %.4f %.4f %.4f\n", quantile(refS, .25), median(refS), quantile(refS, .75))

	var want []metricSpec
	if traced {
		want = spec.PerLayer
		layerMetrics(res.Metrics, tr, passes, withTrace, plain, allocMB, gcs, ops, errRate)
		res.Metrics["pass_cpu_raw_s"] = metric{Value: instanceMean(plainCPU)}
		res.Metrics["ref_cpu_s"] = metric{Value: median(refS)}
		if err := tr.write(filepath.Join(outDir, fmt.Sprintf("trace-%s-%d.json", name, seed))); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	} else {
		want = spec.EndToEnd
		var q quality
		for _, p := range passes[:n] {
			q = q.plus(p.q)
		}
		set := func(n string, v float64) { res.Metrics[n] = metric{Value: v} }
		set("setup_s", median(setupS))
		set("peak_rss_mb", instanceMean(plainRSS))
		set("pass_cpu_s", instanceMean(plainRef))
		set("routability_pct", 100*float64(q.routed)/float64(max(q.nets, 1)))
		set("wirelength_ratio", float64(q.wirelength)/float64(max(q.hpwl, 1)))
		set("shots", float64(q.shots))
		fmt.Printf("quality wirelength=%d hpwl=%d short_polygons=%d via_violations=%d failed_nets=%d (passes 0-%d)\n",
			q.wirelength, q.hpwl, q.sp, q.vv, q.failedNets, n-1)
	}
	if err := fillUnits(res.Metrics, want); err != nil {
		return err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if checkErr != nil {
		return fmt.Errorf("output check failed: %w", checkErr)
	}
	return nil
}

// passInput returns the input pass k runs: k mod n, or in a traced run,
// where an untraced and a traced pass share each input, k/2 mod n.
func passInput(k, n int, traced bool) int {
	if traced {
		return k / 2 % n
	}
	return k % n
}

// layerMetrics fills the per-layer metrics of a traced run.
func layerMetrics(m map[string]metric, tr *tracer, passes []*passResult, traced []float64, plain [][]float64, allocMB, gcs, ops []float64, errRate float64) {
	// Passes alternate untraced (even) and traced (odd).
	set := func(n string, v float64) { m[n] = metric{Value: v} }

	// Busy time per layer and per span name: the median over traced
	// passes of each pass's summed self time.
	perName := map[string][]float64{}
	perLayer := map[string][]float64{}
	for _, self := range tr.selfTimes() {
		layers := map[string]time.Duration{}
		for n, d := range self {
			layers[layerOf(n)] += d
		}
		for _, n := range spanNames {
			perName[n] = append(perName[n], self[n].Seconds())
		}
		for _, l := range layerNames {
			perLayer[l] = append(perLayer[l], layers[l].Seconds())
		}
	}
	for _, l := range layerNames {
		set(l+".busy_s", median(perLayer[l]))
	}
	set("nlio.read_s", median(perName["nlio.read"]))
	set("nlio.write_s", median(perName["nlio.write"]))
	set("eco.apply_s", median(perName["eco.replay"])+median(perName["eco.patch"]))
	set("eco.replay_detail_s", median(perName["eco.replay_detail"]))
	set("eco.patch_detail_s", median(perName["eco.patch_detail"]))

	// Exact counters come from the first traced pass, so they repeat for
	// a seed; latency samples pool every traced pass.
	var first *passResult
	samples := map[string][]float64{}
	rejected := 0.0
	for i, p := range passes {
		rejected += p.counters["server.rejected"]
		if i%2 == 1 {
			if first == nil {
				first = p
			}
			for n, s := range p.samples {
				samples[n] = append(samples[n], s...)
			}
		}
	}
	c := map[string]float64{}
	if first != nil {
		c = first.counters
	}
	for _, n := range counterNames {
		set(n, c[n])
	}
	set("server.rejected", rejected)
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	set("detail.commit_ratio", ratio(c["detail.committed"], c["detail.speculated"]))
	set("detail.expansions_per_s", ratio(c["detail.expansions"], median(perLayer["detail"])))
	set("eco.global_reused_ratio", ratio(c["eco.global_reused"], c["eco.global_reused"]+c["eco.global_routed"]))
	set("eco.detail_reused_ratio", ratio(c["eco.detail_reused"], c["eco.detail_reused"]+c["eco.detail_routed"]))
	set("server.cache_hit_ratio", ratio(c["server.cache_hits"], c["server.submits"]))
	set("server.submit_ms_p50", median(samples["server.submit"]))
	set("server.queue_wait_ms_p50", median(samples["server.queue_wait"]))
	set("server.queue_wait_ms_p90", quantile(samples["server.queue_wait"], 0.9))
	set("server.run_ms_p50", median(samples["server.run"]))
	set("server.routes_get_ms_p50", median(samples["server.routes_get"]))
	set("go.alloc_mb", median(allocMB))
	set("go.gc_cycles", median(gcs))
	var plainAll []float64
	for _, w := range plain {
		plainAll = append(plainAll, w...)
	}
	set("trace.overhead_ratio", median(traced)/median(plainAll))
	set("pass_wall_s", instanceMean(plain))
	set("error_rate", errRate)
	set("op_ms_p50", median(ops))
	set("op_ms_p90", quantile(ops, 0.9))

	fmt.Println("self time by layer (median s per traced pass):")
	for _, l := range layerNames {
		fmt.Printf("  %-9s %.4f\n", l, median(perLayer[l]))
	}
}

// layerNames are the layers spans are attributed to: the modules the
// benchmark calls, the router stages core reports, and the benchmark's
// own glue between calls.
var layerNames = []string{"nlio", "core", "global", "layer", "track", "detail", "drc", "fracture", "stencil", "eco", "server", "bench"}

// spanNames are the span names whose self time is reported on its own.
var spanNames = []string{"nlio.read", "nlio.write", "eco.replay", "eco.patch", "eco.replay_detail", "eco.patch_detail"}

// counterNames are the exact counters reported as they are.
var counterNames = []string{
	"nlio.bytes_in", "global.tvof", "global.wirelength",
	"track.bad_ends", "track.ripped", "track.doglegs",
	"detail.expansions", "detail.connects", "detail.ripped_nets", "detail.failed_nets",
	"detail.speculated", "detail.conflicts",
	"drc.short_polygons", "drc.via_violations",
	"fracture.lshots", "stencil.characters", "eco.patch_rerouted",
}

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// fillUnits sets each metric's unit from BENCHMARK.json and checks that
// the run produced exactly the metrics it names, each a finite number.
func fillUnits(m map[string]metric, want []metricSpec) error {
	var errs []string
	for _, w := range want {
		v, ok := m[w.Name]
		switch {
		case !ok:
			errs = append(errs, "missing "+w.Name)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			errs = append(errs, "non-finite "+w.Name)
		default:
			m[w.Name] = metric{Value: v.Value, Unit: w.Unit}
		}
	}
	if len(m) != len(want) {
		for n := range m {
			if !containsMetric(want, n) {
				errs = append(errs, "unlisted "+n)
			}
		}
	}
	if len(errs) > 0 {
		sort.Strings(errs)
		return errors.New("metrics do not match BENCHMARK.json: " + strings.Join(errs, ", "))
	}
	return nil
}

func containsMetric(ms []metricSpec, name string) bool {
	for _, m := range ms {
		if m.Name == name {
			return true
		}
	}
	return false
}

// checkSeedSensitivity checks that another seed generates a different
// circuit; the metric names cannot depend on the seed, since fillUnits
// checks them against BENCHMARK.json on every run.
func checkSeedSensitivity(w workload, seed int64) error {
	other := seed + 1
	if seed != heldOutSeed {
		other = heldOutSeed
	}
	a, err := w.inputHash(seed)
	if err != nil {
		return err
	}
	b, err := w.inputHash(other)
	if err != nil {
		return err
	}
	if a == b {
		return fmt.Errorf("seeds %d and %d generate the same circuit %s", seed, other, a[:12])
	}
	return nil
}
