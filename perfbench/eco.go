package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"stitchroute/internal/bench"
	"stitchroute/internal/core"
	"stitchroute/internal/drc"
	"stitchroute/internal/eco"
	"stitchroute/internal/fracture"
	"stitchroute/internal/geom"
	"stitchroute/internal/netlist"
	"stitchroute/internal/nlio"
	"stitchroute/internal/plan"
	"stitchroute/internal/stencil"
)

// ecoEditsPerPass is the number of edits one eco_session pass reroutes,
// each by both engines.
const ecoEditsPerPass = 4

// ecoParentSpec is the eco_session parent chip of an input.
func ecoParentSpec(seed int64, input int) bench.Spec {
	s, _ := bench.ByName("Primary1")
	s.SeedOffset = seed*inputStride + int64(input)
	return s
}

func ecoInputHash(seed int64) (string, error) {
	return nlio.CircuitHash(bench.Generate(ecoParentSpec(seed, 0)))
}

// ecoRunner runs the eco_session workload: per input, a routed parent
// chip and a seeded list of single-edit scripts, each rerouted against
// the parent by the replay engine and then the patch engine. Replay cost
// varies twofold between parents, so a run averages over many of them.
type ecoRunner struct {
	cfg     core.Config
	parents *inputCache[*ecoParent]
}

// ecoParent is a parent circuit, its cold route and its edits.
type ecoParent struct {
	c     *netlist.Circuit
	res   *core.Result
	edits []eco.Edit
}

func setupECO(ctx context.Context, seed int64) (runner, error) {
	r := &ecoRunner{cfg: core.StitchAware()}
	var err error
	r.parents, err = newInputCache(func(i int) (*ecoParent, error) {
		var b bytes.Buffer
		if err := nlio.Write(&b, bench.Generate(ecoParentSpec(seed, i))); err != nil {
			return nil, err
		}
		c, err := nlio.Read(&b)
		if err != nil {
			return nil, err
		}
		res, err := core.RouteContext(ctx, c, r.cfg)
		if err != nil {
			return nil, fmt.Errorf("parent route: %w", err)
		}
		rng := rand.New(rand.NewSource(seed*inputStride + int64(i) + 0xec0))
		return &ecoParent{c: c, res: res, edits: ecoEdits(rng, c)}, nil
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

func (r *ecoRunner) prepare(_ context.Context, input int) error { return r.parents.prepare(input) }
func (r *ecoRunner) provenance(p map[string]any)                { p["eco_parent"] = ecoParentSpec(0, 0).Name }
func (r *ecoRunner) close()                                     {}

// ecoEdits returns a parent's seeded edit list. The mix is assumed, as
// the repository records no ECO traffic: each edit moves one pin a few
// tracks with probability 1/2, the representative ECO of cmd/benchjson
// -stage eco, and adds or deletes a net with probability 1/4 each, the
// other edit kinds docs/ECO.md names, so both engines run their add and
// delete paths.
func ecoEdits(rng *rand.Rand, c *netlist.Circuit) []eco.Edit {
	out := make([]eco.Edit, ecoEditsPerPass)
	for i := range out {
		out[i] = localEdit(rng, c, rng.Intn(4))
	}
	return out
}

// localEdit returns one edit of circuit c. kind 0 and 1 move a pin by up
// to 6 tracks, 2 adds a net of 2-3 pins within a 17-track square, and 3
// deletes a net. New pin sites avoid every pin of c.
func localEdit(rng *rand.Rand, c *netlist.Circuit, kind int) eco.Edit {
	used := make(map[geom.Point]bool)
	maxID := 0
	for _, n := range c.Nets {
		maxID = max(maxID, n.ID)
		for _, p := range n.Pins {
			used[p.Point] = true
		}
	}
	f := c.Fabric
	near := func(x, y, r int) geom.Point {
		for {
			p := geom.Point{
				X: min(max(x+rng.Intn(2*r+1)-r, 0), f.XTracks-1),
				Y: min(max(y+rng.Intn(2*r+1)-r, 0), f.YTracks-1),
			}
			if !used[p] {
				used[p] = true
				return p
			}
		}
	}
	n := c.Nets[rng.Intn(len(c.Nets))]
	switch kind {
	case 0, 1:
		i := rng.Intn(len(n.Pins))
		p := near(n.Pins[i].X, n.Pins[i].Y, 6)
		return eco.Edit{Op: eco.OpMovePin, ID: n.ID, Pin: i, X: p.X, Y: p.Y}
	case 2:
		x, y := rng.Intn(f.XTracks), rng.Intn(f.YTracks)
		pins := make([]eco.Pin, 2+rng.Intn(2))
		for i := range pins {
			p := near(x, y, 8)
			pins[i] = eco.Pin{X: p.X, Y: p.Y, Layer: 1}
		}
		return eco.Edit{Op: eco.OpAdd, ID: maxID + 1, Pins: pins}
	default:
		return eco.Edit{Op: eco.OpDelete, ID: n.ID}
	}
}

// ecoOut is one edit's two reroutes and the patch's write-prep, kept for
// the checks.
type ecoOut struct {
	script        *eco.Script
	replay, patch *eco.Result
	rep           drc.Report       // of the patch
	fr            *fracture.Result // of the patch
	routes        []byte           // the patch's routes text
}

func (r *ecoRunner) pass(ctx context.Context, k, input int, tr *tracer) (*passResult, error) {
	par := r.parents.get(input)
	p := newPassResult()
	outs := make([]ecoOut, 0, len(par.edits))
	sw := startWatch()
	for _, e := range par.edits {
		if o, ok := r.edit(ctx, par, e, tr, p); ok {
			outs = append(outs, o)
		}
	}
	sw.stop(p)

	for i, o := range outs {
		if o.replay.Stats.Fallback || o.patch.Stats.Fallback {
			return p, fmt.Errorf("edit %+v: an ECO engine fell back to a cold route", o.script.Edits[0])
		}
		if k == input {
			res := o.replay
			fr := fracture.Fracture(res.Routes, res.Edited.Fabric.Layers, fracture.ModeLShape, fracture.Options{})
			p.q = p.q.plus(routeQuality(res.Edited, res.Report, res.FailedNets, fr.ShotCount))
			p.q = p.q.plus(routeQuality(o.patch.Edited, o.rep, o.patch.FailedNets, o.fr.ShotCount))
		}
		// Pass 0 gets the full output checks.
		if k == 0 {
			if err := r.check(ctx, par, o, i == 0); err != nil {
				return p, fmt.Errorf("edit %+v: %w", o.script.Edits[0], err)
			}
		}
	}
	return p, nil
}

// edit reroutes one single-edit script by both engines, and takes the
// patched layout on through write-prep as a released edit would go:
// DRC, L-shape shots, stencil planning and routes text.
func (r *ecoRunner) edit(ctx context.Context, par *ecoParent, e eco.Edit, tr *tracer, p *passResult) (ecoOut, bool) {
	op := tr.newOp()
	root := tr.begin("bench.edit", 0, op)
	defer tr.end(root)
	t0 := time.Now()
	o := ecoOut{script: &eco.Script{Edits: []eco.Edit{e}}}

	sp := tr.begin("eco.replay", root, op)
	rs := time.Now()
	res, err := eco.RerouteContext(ctx, par.res, par.c, o.script, r.cfg)
	tr.end(sp)
	if err != nil {
		p.op(time.Since(t0), err)
		return o, false
	}
	tr.stages(sp, op, rs, []string{"global", "layer", "track", "eco.replay_detail"},
		[]time.Duration{res.Times.Global, res.Times.Layer, res.Times.Track, res.Times.Detail})
	o.replay = res

	sp = tr.begin("eco.patch", root, op)
	ps := time.Now()
	res, err = eco.ReroutePatchContext(ctx, par.res, par.c, o.script, r.cfg)
	tr.end(sp)
	if err != nil {
		p.op(time.Since(t0), err)
		return o, false
	}
	tr.stages(sp, op, ps, []string{"eco.patch_detail"}, []time.Duration{res.Times.Detail})
	o.patch = res

	sp = tr.begin("drc.check", root, op)
	o.rep = drc.Check(res.Edited, res.Routes)
	tr.end(sp)
	sp = tr.begin("fracture.lshape", root, op)
	o.fr = fracture.Fracture(res.Routes, res.Edited.Fabric.Layers, fracture.ModeLShape, fracture.Options{})
	tr.end(sp)
	sp = tr.begin("stencil.build", root, op)
	pl := stencil.Build(o.fr.Shots, stencil.Options{})
	tr.end(sp)
	sp = tr.begin("nlio.write", root, op)
	var out bytes.Buffer
	err = nlio.WriteRoutes(&out, res.Routes)
	tr.end(sp)
	if err != nil {
		p.op(time.Since(t0), err)
		return o, false
	}
	o.routes = out.Bytes()
	p.op(time.Since(t0), nil)

	cnt := p.counters
	cnt["eco.global_reused"] += float64(o.replay.Stats.GlobalReused)
	cnt["eco.global_routed"] += float64(o.replay.Stats.GlobalRouted)
	cnt["eco.detail_reused"] += float64(o.replay.Stats.DetailReused + o.patch.Stats.DetailReused)
	cnt["eco.detail_routed"] += float64(o.replay.Stats.DetailRouted + o.patch.Stats.DetailRouted)
	cnt["eco.patch_rerouted"] += float64(o.patch.Stats.DetailRouted)
	cnt["drc.short_polygons"] += float64(o.rep.ShortPolygons)
	cnt["drc.via_violations"] += float64(o.rep.ViaViolations)
	cnt["fracture.lshots"] += float64(o.fr.LShots)
	cnt["stencil.characters"] += float64(len(pl.Placements))
	return o, true
}

// check verifies one edit's reroutes: each DRC report matches drc.Check
// of its routes, routes text round-trips, a repeated patch reproduces its
// hash, and, when cold is set, the replay equals a cold reroute of the
// edited circuit.
func (r *ecoRunner) check(ctx context.Context, par *ecoParent, o ecoOut, cold bool) error {
	var b bytes.Buffer
	if err := nlio.WriteRoutes(&b, o.replay.Routes); err != nil {
		return err
	}
	for _, c := range []struct {
		res    *eco.Result
		rep    drc.Report
		routes []byte
	}{
		{o.replay, drc.Check(o.replay.Edited, o.replay.Routes), b.Bytes()},
		{o.patch, o.rep, o.routes},
	} {
		if !reflect.DeepEqual(c.rep, c.res.Report) {
			return errors.New("drc.Check of the returned routes differs from the ECO report")
		}
		if err := roundTrip(c.routes, c.res.Routes); err != nil {
			return err
		}
	}
	again, err := eco.ReroutePatchContext(ctx, par.res, par.c, o.script, r.cfg)
	if err != nil {
		return err
	}
	if err := sameRoutes(again.Routes, o.patch.Routes, "repeated patch"); err != nil {
		return err
	}
	if !cold {
		return nil
	}
	ref, err := core.RouteContext(ctx, o.replay.Edited, r.cfg)
	if err != nil {
		return err
	}
	return sameRoutes(o.replay.Routes, ref.Routes, "replay vs cold reroute")
}

// sameRoutes checks that two route sets have the same canonical hash.
func sameRoutes(got, want []plan.NetRoute, what string) error {
	g, err := nlio.RoutesHash(got)
	if err != nil {
		return err
	}
	w, err := nlio.RoutesHash(want)
	if err != nil {
		return err
	}
	if g != w {
		return fmt.Errorf("%s: routes hash %s differs from %s", what, g[:12], w[:12])
	}
	return nil
}
