package main

// trace.go — the traced pass's span recorder.  Spans are taken by the
// benchmark itself around each call into a layer's public function;
// nothing inside the program is instrumented.  Spans stay in memory and
// are written out once, when the benchmark ends.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer.
type span struct {
	Name   string `json:"name"`
	Run    int    `json:"run"`    // the root span's index; shared by a pipeline's spans
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer records nested spans.  A nil *tracer records nothing, so the
// untraced pass runs the same code with tracing off.
type tracer struct {
	t0    time.Time
	spans []span
	open  int // innermost open span, -1 when none
}

func newTracer() *tracer { return &tracer{t0: time.Now(), open: -1} }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	i := len(t.spans)
	run := i
	if t.open >= 0 {
		run = t.spans[t.open].Run
	}
	t.spans = append(t.spans, span{Name: name, Run: run, Parent: t.open, Start: int64(time.Since(t.t0))})
	t.open = i
	return i
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.t0))
	t.open = t.spans[i].Parent
}

// selfTimes returns each span's duration minus the time its direct
// children cover, in seconds, indexed like the spans.
func (t *tracer) selfTimes() []float64 {
	self := make([]float64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// selfByName collects self times per span name, and for every span
// with a root also under "name@root", so that per-configuration layers
// (interp.run@run.chunked.np1) can be told apart.
func (t *tracer) selfByName() map[string][]float64 {
	self := t.selfTimes()
	out := map[string][]float64{}
	for i, s := range t.spans {
		out[s.Name] = append(out[s.Name], self[i])
		if s.Parent >= 0 {
			root := t.spans[s.Run].Name
			out[s.Name+"@"+root] = append(out[s.Name+"@"+root], self[i])
		}
	}
	return out
}

// write stores the spans, their per-name median self times and the
// run's provenance as one JSON file.
func (t *tracer) write(path string, prov provenance, results []metric) error {
	byName := t.selfByName()
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	type selfStat struct {
		Name    string  `json:"name"`
		Count   int     `json:"count"`
		MedianS float64 `json:"median_self_s"`
	}
	stats := make([]selfStat, 0, len(names))
	for _, n := range names {
		stats = append(stats, selfStat{n, len(byName[n]), median(byName[n])})
	}
	data, err := json.MarshalIndent(struct {
		Provenance provenance `json:"provenance"`
		Metrics    []metric   `json:"metrics"`
		SelfTimes  []selfStat `json:"self_times"`
		Spans      []span     `json:"spans"`
	}{prov, results, stats, t.spans}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
