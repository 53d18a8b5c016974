package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval recorded around a call the benchmark makes
// into the program, or derived from timing the program reports itself
// (core.StageTimes, the server's job stamps). Offsets are from the
// tracer's epoch.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 for an op's root span
	Op     int           `json:"op"`     // spans of one op share it
	Pass   int           `json:"pass"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// layerOf returns the layer a span name belongs to: the name up to the
// first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced passes pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	pass  int
	ops   int
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// setPass tags the spans recorded from now on with pass k.
func (t *tracer) setPass(k int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.pass = k
	t.mu.Unlock()
}

// newOp returns a fresh op id.
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin opens a span starting now and returns its id.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Pass: t.pass, Name: name, Start: now.Sub(t.epoch)})
	return id
}

// end closes the span begin opened.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].End = now.Sub(t.epoch)
	t.mu.Unlock()
}

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent, op int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Pass: t.pass, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	return id
}

// stages records back-to-back child spans of parent, starting at start,
// for durations the program measured itself; zero durations are skipped.
func (t *tracer) stages(parent, op int, start time.Time, names []string, durs []time.Duration) {
	for i, d := range durs {
		if d > 0 {
			t.add(names[i], parent, op, start, start.Add(d))
		}
		start = start.Add(d)
	}
}

// selfTimes returns, per pass and per span name, the summed self time:
// each span's duration minus the part of it its children cover.
func (t *tracer) selfTimes() map[int]map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]map[string]time.Duration)
	for _, s := range t.spans {
		self := s.End - s.Start - covered(s, children[s.ID])
		if out[s.Pass] == nil {
			out[s.Pass] = make(map[string]time.Duration)
		}
		out[s.Pass][s.Name] += self
	}
	return out
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB time.Duration
	for i, v := range iv {
		if i == 0 || v[0] > curB {
			total += curB - curA
			curA, curB = v[0], v[1]
		} else if v[1] > curB {
			curB = v[1]
		}
	}
	return total + curB - curA
}

// write saves every span as JSON.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
