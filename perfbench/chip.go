package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"time"

	"stitchroute/internal/bench"
	"stitchroute/internal/core"
	"stitchroute/internal/drc"
	"stitchroute/internal/fracture"
	"stitchroute/internal/harness"
	"stitchroute/internal/netlist"
	"stitchroute/internal/nlio"
	"stitchroute/internal/plan"
	"stitchroute/internal/stencil"
)

// inputStride separates the generator offsets of different seeds: input
// i of seed s uses offset s*inputStride+i, so seed 0's first input is
// the unperturbed circuit the goldens pin.
const inputStride = 1 << 20

// Golden files the chip_cold workload reproduces at seed 0.
const (
	goldenRoutes   = "internal/harness/testdata/golden/S9234.json"
	goldenFracture = "internal/harness/testdata/golden/fracture.json"
)

// chipsPerSet is the size of the chip_cold chip set: two MCNC chips and
// a 6-layer chip with the Faraday DMA statistics at 1/16 scale.
const chipsPerSet = 3

// chipSpec is the chip of a chip_cold input: input i is chip i mod 3 of
// chip set i/3. Each chip is an input of its own, so that a timed pass
// lasts seconds, not the chip set's minutes of CPU, and the reference
// kernel measured around it sees the host as the pass did.
func chipSpec(seed int64, input int) bench.Spec {
	var s bench.Spec
	switch input % chipsPerSet {
	case 0:
		s, _ = bench.ByName("S9234")
	case 1:
		s, _ = bench.ByName("S13207")
	default:
		s, _ = bench.ByName("DMA")
		s.Name, s.Nets, s.Pins = "DMA16", s.Nets/16, s.Pins/16
	}
	s.SeedOffset = seed*inputStride + int64(input/chipsPerSet)
	return s
}

func chipInputHash(seed int64) (string, error) {
	return nlio.CircuitHash(bench.Generate(chipSpec(seed, 0)))
}

// chipRunner runs the chip_cold workload: per pass, the cold flow of one
// chip from nlio text in to routes, DRC, L-shape shots, stencil and routes
// text out.
type chipRunner struct {
	inputs   *inputCache[[]byte] // nlio text
	golden   *harness.Metrics
	goldenFr *harness.FractureMetrics
}

func setupChip(_ context.Context, seed int64) (runner, error) {
	r := &chipRunner{}
	if seed == 0 {
		ms, err := harness.ReadGolden(goldenRoutes)
		if err != nil {
			return nil, err
		}
		for i := range ms {
			if ms[i].Mode == "stitch" {
				r.golden = &ms[i]
			}
		}
		fms, err := harness.ReadFractureGolden(goldenFracture)
		if err != nil {
			return nil, err
		}
		for i := range fms {
			if fms[i].Circuit == "S9234" {
				r.goldenFr = &fms[i]
			}
		}
		if r.golden == nil || r.goldenFr == nil {
			return nil, errors.New("S9234 golden rows not found")
		}
	}
	var err error
	r.inputs, err = newInputCache(func(i int) ([]byte, error) {
		var b bytes.Buffer
		if err := nlio.Write(&b, bench.Generate(chipSpec(seed, i))); err != nil {
			return nil, err
		}
		return b.Bytes(), nil
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

func (r *chipRunner) prepare(_ context.Context, input int) error { return r.inputs.prepare(input) }
func (r *chipRunner) provenance(map[string]any)                  {}
func (r *chipRunner) close()                                     {}

// chipOut is what one flow produced, kept for the checks.
type chipOut struct {
	c      *netlist.Circuit
	res    *core.Result
	rep    drc.Report
	fr     *fracture.Result
	routes []byte
}

func (r *chipRunner) pass(ctx context.Context, _, input int, tr *tracer) (*passResult, error) {
	p := newPassResult()
	sw := startWatch()
	o := chipFlow(ctx, r.inputs.get(input), tr, p)
	sw.stop(p)
	if o == nil {
		return p, nil
	}
	if err := r.check(o, input == 0); err != nil {
		return p, fmt.Errorf("%s: %w", o.c.Name, err)
	}
	return p, nil
}

// chipFlow runs one chip's cold flow; it returns nil when an op failed.
func chipFlow(ctx context.Context, text []byte, tr *tracer, p *passResult) *chipOut {
	op := tr.newOp()
	root := tr.begin("bench.flow", 0, op)
	defer tr.end(root)
	t0 := time.Now()
	fail := func(err error) *chipOut {
		p.op(time.Since(t0), err)
		return nil
	}

	sp := tr.begin("nlio.read", root, op)
	c, err := nlio.Read(bytes.NewReader(text))
	tr.end(sp)
	if err != nil {
		return fail(err)
	}
	sp = tr.begin("core.route", root, op)
	rs := time.Now()
	res, err := core.RouteContext(ctx, c, core.StitchAware())
	tr.end(sp)
	if err != nil {
		return fail(err)
	}
	routeStages(tr, sp, op, rs, res)
	sp = tr.begin("drc.check", root, op)
	rep := drc.Check(c, res.Routes)
	tr.end(sp)
	sp = tr.begin("fracture.lshape", root, op)
	fr := fracture.Fracture(res.Routes, c.Fabric.Layers, fracture.ModeLShape, fracture.Options{})
	tr.end(sp)
	sp = tr.begin("stencil.build", root, op)
	pl := stencil.Build(fr.Shots, stencil.Options{})
	tr.end(sp)
	sp = tr.begin("nlio.write", root, op)
	var out bytes.Buffer
	err = nlio.WriteRoutes(&out, res.Routes)
	tr.end(sp)
	if err != nil {
		return fail(err)
	}
	p.op(time.Since(t0), nil)

	cnt := p.counters
	cnt["nlio.bytes_in"] += float64(len(text))
	routeCounters(cnt, res)
	cnt["drc.short_polygons"] += float64(rep.ShortPolygons)
	cnt["drc.via_violations"] += float64(rep.ViaViolations)
	cnt["fracture.lshots"] += float64(fr.LShots)
	cnt["stencil.characters"] += float64(len(pl.Placements))
	p.q = p.q.plus(routeQuality(c, rep, res.FailedNets, fr.ShotCount))
	return &chipOut{c: c, res: res, rep: rep, fr: fr, routes: out.Bytes()}
}

// routeStages records core's own stage times as children of the span
// around core.RouteContext, back to back from its start.
func routeStages(tr *tracer, parent, op int, start time.Time, res *core.Result) {
	tr.stages(parent, op, start, []string{"global", "layer", "track", "detail"},
		[]time.Duration{res.Times.Global, res.Times.Layer, res.Times.Track, res.Times.Detail})
}

// routeCounters adds a cold route's stage counters.
func routeCounters(cnt map[string]float64, res *core.Result) {
	cnt["global.tvof"] += float64(res.TVOF)
	cnt["global.wirelength"] += float64(res.GlobalWL)
	cnt["track.bad_ends"] += float64(res.TrackStats.BadEnds)
	cnt["track.ripped"] += float64(res.TrackStats.Ripped)
	cnt["track.doglegs"] += float64(res.TrackStats.Doglegs)
	cnt["detail.expansions"] += float64(res.DetailExpansions)
	cnt["detail.connects"] += float64(res.DetailConnects)
	cnt["detail.ripped_nets"] += float64(res.RippedNets)
	cnt["detail.failed_nets"] += float64(res.FailedNets)
	cnt["detail.speculated"] += float64(res.DetailSched.Speculated)
	cnt["detail.committed"] += float64(res.DetailSched.Committed)
	cnt["detail.conflicts"] += float64(res.DetailSched.Conflicts)
}

func routeQuality(c *netlist.Circuit, rep drc.Report, failedNets, shots int) quality {
	return quality{
		nets: rep.TotalNets, routed: rep.RoutedNets, hpwl: hpwl(c),
		wirelength: rep.Wirelength, shots: int64(shots),
		sp: int64(rep.ShortPolygons), vv: int64(rep.ViaViolations), failedNets: int64(failedNets),
	}
}

// hpwl returns the summed half-perimeter wirelength of c's nets.
func hpwl(c *netlist.Circuit) int64 {
	var sum int64
	for _, n := range c.Nets {
		sum += int64(n.HPWL())
	}
	return sum
}

// check verifies one flow's outputs: the DRC report, the routes text
// round trip, and, for the golden chip at seed 0, the checked-in goldens.
func (r *chipRunner) check(o *chipOut, goldenChip bool) error {
	if !reflect.DeepEqual(o.rep, o.res.Report) {
		return errors.New("drc.Check of the returned routes differs from the router's report")
	}
	if err := roundTrip(o.routes, o.res.Routes); err != nil {
		return err
	}
	if !goldenChip || r.golden == nil {
		return nil
	}
	if got := harness.Collect(o.c, "stitch", o.res); got != *r.golden {
		return fmt.Errorf("S9234 metrics %+v differ from the golden %+v", got, *r.golden)
	}
	h, err := fracture.ShotsHash(o.fr.Shots)
	if err != nil {
		return err
	}
	if h != r.goldenFr.ShotsHash || o.fr.ShotCount != r.goldenFr.LShapeShot {
		return fmt.Errorf("S9234 shots %d/%s differ from the golden %d/%s",
			o.fr.ShotCount, h[:12], r.goldenFr.LShapeShot, r.goldenFr.ShotsHash[:12])
	}
	return nil
}

// roundTrip checks that routes text written by nlio.WriteRoutes reads
// back to routes with the same hash.
func roundTrip(text []byte, routes []plan.NetRoute) error {
	back, err := nlio.ReadRoutes(bytes.NewReader(text))
	if err != nil {
		return fmt.Errorf("routes text does not read back: %w", err)
	}
	want, err := nlio.RoutesHash(routes)
	if err != nil {
		return err
	}
	got, err := nlio.RoutesHash(back)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("routes round trip changed the hash: %s vs %s", got[:12], want[:12])
	}
	return nil
}
