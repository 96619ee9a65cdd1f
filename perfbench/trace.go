package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
// Spans are recorded from the benchmark's own files, around public calls; a
// layer's self time is its span duration minus the part its children cover.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a top-level span
	Name   string  `json:"name"`
	Run    string  `json:"run"`
	Start  float64 `json:"start_ms"` // offsets from the tracer origin
	End    float64 `json:"end_ms"`
}

func (s span) ms() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the benchmark writes them out. A nil
// *tracer is the untraced mode: every method is a no-op, so production runs
// pay one pointer test per call site.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	run    string
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) at(ts time.Time) float64 {
	return float64(ts.Sub(t.origin).Nanoseconds()) / 1e6
}

// setRun labels the spans recorded from now on.
func (t *tracer) setRun(run string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.run = run
	t.mu.Unlock()
}

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := t.at(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Run: t.run, Start: now, End: math.NaN()})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := t.at(time.Now())
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// rename renames span id.
func (t *tracer) rename(id int, name string) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Name = name
	t.mu.Unlock()
}

// add records a span whose bounds were measured elsewhere (a job's
// timestamps, or a call kept only when it did work).
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Run: t.run, Start: t.at(start), End: t.at(end)})
	return len(t.spans)
}

// closed returns a snapshot of every finished span.
func (t *tracer) closed() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if !math.IsNaN(s.End) {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations (ms) of the spans named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

// selfMS returns, for every span named name, its duration minus the union of
// its children's intervals.
func selfMS(spans []span, name string) []float64 {
	children := map[int][][2]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.ms()-covered(children[s.ID], s.Start, s.End))
		}
	}
	return out
}

// covered returns the length of the union of intervals clipped to [lo, hi].
func covered(iv [][2]float64, lo, hi float64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, cur := 0.0, lo
	for _, v := range iv {
		a, b := math.Max(v[0], cur), math.Min(v[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// unattributed returns the share of root's wall time that no other span
// covers.
func unattributed(spans []span, root int) float64 {
	var r span
	var iv [][2]float64
	for _, s := range spans {
		if s.ID == root {
			r = s
		} else {
			iv = append(iv, [2]float64{s.Start, s.End})
		}
	}
	if r.ms() <= 0 {
		return 0
	}
	return 1 - covered(iv, r.Start, r.End)/r.ms()
}

// write dumps the spans as JSON Lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.closed() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	return f.Close()
}

// quantile is the linearly interpolated q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func iqr(xs []float64) float64 { return quantile(xs, 0.75) - quantile(xs, 0.25) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
