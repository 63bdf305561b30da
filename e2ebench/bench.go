package main

// bench.go — one workload through the pipeline forcerun takes by
// default (forcelang.Parse → vet.Analyze → execution) on the chunked
// interpreter and the warm aot tier, at np=1 and np=NumCPU.  The load is
// a closed loop with one client: configurations run back to back in one
// process, never more than one force or aot child at a time.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/aot"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/forcelang"
	"repro/internal/interp"
	"repro/internal/vet"
)

const (
	runTimeout  = 60 * time.Second // one pipeline run; a hang fails the run
	setupReps   = 5                // cold builds timed per run
	minRounds   = 3                // rounds of all configurations, at least
	maxFailLogs = 5
)

// config is one tier at one force size.
type config struct {
	tier  string // "chunked" or "aot"
	np    int
	label string // "np1" or "npcpu"
}

func (c config) key() string { return c.tier + "." + c.label }

// bench holds one workload's state across a benchmark run.
type bench struct {
	w       *workload
	front   *workload // the front-end probe's large program
	npcpu   int
	work    string // scratch directory for the private aot caches
	want    map[int]string
	configs []config
	cache   *aot.Cache // private cache holding the built program
	entry   *aot.Entry
	warm    bool // the warm-up round has run

	attempted, failed int
	tr                *tracer // nil outside the traced pass
	interpAllocs      float64 // allocations of the last traced interp.Run
}

func newBench(w *workload, npcpu int, work string) *bench {
	b := &bench{w: w, npcpu: npcpu, work: work, want: map[int]string{}}
	b.configs = []config{{"chunked", 1, "np1"}, {"chunked", npcpu, "npcpu"}, {"aot", 1, "np1"}, {"aot", npcpu, "npcpu"}}
	for _, c := range b.configs {
		if _, ok := b.want[c.np]; !ok {
			b.want[c.np] = w.expect(c.np)
		}
	}
	return b
}

// record counts one attempted operation and, when err is set, a
// failure, reporting the first few on standard error.
func (b *bench) record(what string, err error) bool {
	b.attempted++
	if err == nil {
		return true
	}
	b.failed++
	if b.failed <= maxFailLogs {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %s: %v\n", b.w.name, what, err)
	}
	return false
}

// pipeline runs the program once on c's tier, writing its Print output
// to out.  onForce receives the interpreter's force.
func (b *bench) pipeline(ctx context.Context, c config, out *bytes.Buffer, onForce func(*core.Force)) error {
	defer b.tr.end(b.tr.begin("run." + c.key()))
	sp := b.tr.begin("forcelang.parse")
	prog, err := forcelang.Parse(b.w.src)
	b.tr.end(sp)
	if err != nil {
		return err
	}
	sp = b.tr.begin("vet.analyze")
	_, err = vet.Analyze(prog)
	b.tr.end(sp)
	if err != nil {
		return err
	}
	if c.tier == "chunked" {
		var m0, m1 runtime.MemStats
		if b.tr != nil {
			runtime.ReadMemStats(&m0)
		}
		sp = b.tr.begin("interp.run")
		err = interp.Run(prog, interp.Config{NP: c.np, Stdout: out, Context: ctx, OnForce: onForce})
		b.tr.end(sp)
		if b.tr != nil {
			runtime.ReadMemStats(&m1)
			b.interpAllocs = float64(m1.Mallocs - m0.Mallocs)
		}
		return err
	}
	if b.cache == nil {
		return errors.New("aot: no native build (set-up failed)")
	}
	sp = b.tr.begin("aot.lookup")
	e, ok := b.cache.Cached(prog, aot.Options{})
	b.tr.end(sp)
	if !ok {
		return errors.New("aot: cache miss on a warm cache")
	}
	sp = b.tr.begin("aot.exec")
	err = e.RunContext(ctx, c.np, out)
	b.tr.end(sp)
	return err
}

// sample is one checked pipeline run.
type sample struct {
	wall         float64 // seconds
	allocs       float64 // heap allocations, parse to exit
	interpAllocs float64 // heap allocations of interp.Run alone (traced pass)
	stats        statsSnap
}

// statsSnap copies the construct counts of a force's Stats.
type statsSnap struct{ barriers, loops, reductions, askforTasks, criticals float64 }

// once runs and checks one pipeline run.  ok is false when the run
// errored or printed the wrong output; either counts as failed.
func (b *bench) once(c config) (s sample, ok bool) {
	var out bytes.Buffer
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	var force *core.Force
	onForce := func(f *core.Force) { force = f }
	// Start every run from a collected heap, as a fresh forcerun would.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	err := b.pipeline(ctx, c, &out, onForce)
	s.wall = time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	s.allocs = float64(m1.Mallocs - m0.Mallocs)
	s.interpAllocs = b.interpAllocs
	if err == nil {
		err = checkOutput(out.String(), b.want[c.np])
	}
	if !b.record(c.key(), err) {
		return s, false
	}
	if force != nil {
		st := force.Stats()
		s.stats = statsSnap{float64(st.Barriers.Load()), float64(st.Loops.Load()),
			float64(st.Reductions.Load()), float64(st.AskforTasks.Load()), float64(st.Criticals.Load())}
	}
	return s, true
}

// pass runs rounds of every configuration, rotating which goes first,
// until d has passed and at least minRounds rounds are done.  The first
// pass of a run starts with one unrecorded warm-up round.
func (b *bench) pass(d time.Duration) map[string][]sample {
	if !b.warm {
		for _, c := range b.configs {
			b.once(c)
		}
		b.warm = true
	}
	got := map[string][]sample{}
	deadline := time.Now().Add(d)
	for r := 0; r < minRounds || time.Now().Before(deadline); r++ {
		for i := range b.configs {
			c := b.configs[(r+i)%len(b.configs)]
			if s, ok := b.once(c); ok {
				got[c.key()] = append(got[c.key()], s)
			}
		}
	}
	return got
}

// build parses src and builds it into a fresh private cache under a span
// named spanName, returning the entry and the EnsureContext wall time.
// The cache lives under the benchmark's scratch directory, never in
// ~/.cache/force or $FORCE_CACHE, so every build starts empty and no
// other commit's binary can be hit.
func (b *bench) build(src, spanName string) (*aot.Cache, *aot.Entry, float64, error) {
	prog, err := forcelang.Parse(src)
	if err != nil {
		return nil, nil, 0, err
	}
	dir, err := os.MkdirTemp(b.work, "cache-")
	if err != nil {
		return nil, nil, 0, err
	}
	cache, err := aot.Open(dir)
	if err != nil {
		return nil, nil, 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*runTimeout)
	defer cancel()
	sp := b.tr.begin(spanName)
	start := time.Now()
	e, err := cache.EnsureContext(ctx, prog, aot.Options{})
	d := time.Since(start).Seconds()
	b.tr.end(sp)
	if err != nil {
		return nil, nil, 0, err
	}
	if st := cache.Stats(); st.Builds != 1 || st.Misses != 1 {
		return nil, nil, 0, fmt.Errorf("aot: set-up into an empty cache made %s", st)
	}
	return cache, e, d, nil
}

// setup times reps cold builds of the program, each into an empty
// private cache, and returns their EnsureContext times.  The last cache
// serves the warm aot runs.  A failed build leaves no cache, so every
// aot run counts as failed: there is no interpreter fallback.
func (b *bench) setup(reps int) []float64 {
	var times []float64
	for i := 0; i < reps; i++ {
		cache, e, d, err := b.build(b.w.src, "aot.ensure")
		if b.cache != nil {
			os.RemoveAll(b.cache.Dir())
		}
		b.cache, b.entry = cache, e
		if !b.record("aot set-up", err) {
			return nil
		}
		times = append(times, d)
	}
	return times
}

// timed is the untraced pass: it yields every end-to-end metric.
func (b *bench) timed(d time.Duration) []metric {
	b.setup(1) // warms Go's build cache for the generated program's imports
	setupTimes := b.setup(setupReps)
	got := b.pass(d)
	for _, c := range b.configs {
		// The tail is the highest sample with ten samples above it.
		xs := field(got[c.key()], func(s sample) float64 { return s.wall })
		sort.Float64s(xs)
		if n := len(xs); n >= 20 {
			fmt.Printf("samples run_s.%s: n=%d median=%.6g tail=%.6g (p%.0f) s\n",
				c.key(), n, median(xs), xs[n-11], 100*float64(n-11)/float64(n-1))
		}
	}
	ms := b.runMetrics(got)
	return append(ms,
		metric{"setup_s", "s", median(setupTimes)},
		metric{"allocs.chunked.np1", "count", median(field(got["chunked.np1"], func(s sample) float64 { return s.allocs }))},
		metric{"ok_frac", "ratio", ratio(float64(b.attempted-b.failed), float64(b.attempted))},
	)
}

// runMetrics reduces a pass to the run_s and speedup metrics.
func (b *bench) runMetrics(got map[string][]sample) []metric {
	wall := func(k string) float64 { return median(field(got[k], func(s sample) float64 { return s.wall })) }
	var ms []metric
	for _, c := range b.configs {
		ms = append(ms, metric{"run_s." + c.key(), "s", wall(c.key())})
	}
	return append(ms,
		metric{"speedup.chunked", "x", ratio(wall("chunked.np1"), wall("chunked.npcpu"))},
		metric{"speedup.aot", "x", ratio(wall("aot.np1"), wall("aot.npcpu"))},
	)
}

// traced is the traced pass: spans around every layer call, separate
// loops for the layer functions the pipeline calls only inside others
// (forcelang.Check, aot.Key, codegen.Generate) or not at all (a trivial
// launch), the front-end probe, the primitive probes, and an untraced
// pass of equal length
// for the tracing overhead.  It yields every per-layer metric and the
// spans.
func (b *bench) traced(d time.Duration) ([]metric, *tracer) {
	tr := newTracer()
	var ms []metric
	add := func(name, unit string, v float64) { ms = append(ms, metric{name, unit, v}) }
	add("forcelang.src_lines", "count", float64(strings.Count(b.w.src, "\n")))
	prog, err := forcelang.Parse(b.w.src)
	if !b.record("parse", err) {
		return nil, tr
	}
	diags, err := vet.Analyze(prog)
	b.record("vet", err)
	add("vet.findings", "count", float64(len(diags)))

	b.setup(1) // warms Go's build cache, untraced
	b.tr = tr
	b.setup(1)
	var binBytes, goBytes float64
	if b.entry != nil {
		binBytes = float64(b.entry.Meta.BinSize)
	}
	layerLoop(tr, "forcelang.check", func() error { return forcelang.Check(prog) })
	layerLoop(tr, "aot.key", func() error { aot.Key(prog, aot.Options{}); return nil })
	layerLoop(tr, "codegen.generate", func() error {
		src, err := codegen.Generate(prog, codegen.Options{Package: "main"})
		goBytes = float64(len(src))
		return err
	})
	launch := b.launchProbe(tr)
	b.frontProbe(tr)
	b.tr = nil

	// Primitive probes and force creation, outside any span.
	probes := map[string]float64{}
	for _, pr := range primitives {
		for _, c := range []config{{"", 1, "np1"}, {"", b.npcpu, "npcpu"}} {
			v := pr.measure(c.np)
			probes[pr.name+"."+c.label] = v
			add(pr.name+"."+c.label, "ns", v)
		}
	}
	runNS, runAllocs := probeRun(b.npcpu)
	add("core.run_ns", "ns", runNS)
	add("core.run_allocs", "count", runAllocs)
	add("core.new_s", "s", probeNew(b.npcpu))

	// Untraced and traced passes of equal length, in alternating halves
	// so drift on the machine hits both alike.
	var plain, traced []map[string][]sample
	for half := 0; half < 2; half++ {
		plain = append(plain, b.pass(d/4))
		b.tr = tr
		traced = append(traced, b.pass(d/4))
		b.tr = nil
	}
	self := tr.selfByName()
	med := func(name string) float64 { return median(self[name]) }
	interpNP := med("interp.run@run.chunked.npcpu")
	add("forcelang.src_lines.frontend", "count", float64(strings.Count(b.front.src, "\n")))
	add("forcelang.parse_s.frontend", "s", med("forcelang.parse.frontend"))
	add("forcelang.check_s.frontend", "s", med("forcelang.check.frontend"))
	add("vet.analyze_s.frontend", "s", med("vet.analyze.frontend"))
	add("interp.run_s.frontend", "s", med("interp.run.frontend"))
	add("codegen.generate_s.frontend", "s", med("codegen.generate.frontend"))
	add("forcelang.parse_s", "s", med("forcelang.parse"))
	add("forcelang.check_s", "s", med("forcelang.check"))
	add("vet.analyze_s", "s", med("vet.analyze"))
	add("interp.run_s.np1", "s", med("interp.run@run.chunked.np1"))
	add("interp.run_s.npcpu", "s", interpNP)
	add("interp.allocs.np1", "count", median(field(mergeAll(traced, "chunked.np1"), func(s sample) float64 { return s.interpAllocs })))
	add("codegen.generate_s", "s", med("codegen.generate"))
	add("codegen.go_bytes", "bytes", goBytes)
	add("aot.build_s", "s", med("aot.ensure"))
	add("aot.key_s", "s", med("aot.key"))
	add("aot.lookup_s", "s", med("aot.lookup"))
	add("aot.launch_s", "s", launch)
	add("aot.exec_s.np1", "s", med("aot.exec@run.aot.np1"))
	add("aot.exec_s.npcpu", "s", med("aot.exec@run.aot.npcpu"))
	add("aot.bin_bytes", "bytes", binBytes)
	var builds, hits float64
	if b.cache != nil {
		st := b.cache.Stats()
		builds, hits = float64(st.Builds), float64(st.Hits)
	}
	add("aot.builds", "count", builds)
	add("aot.hits", "count", hits)

	// Construct counts of a chunked run at npcpu, from Force.Stats; a
	// program makes the same counts on every run.
	var st statsSnap
	if runs := mergeAll(traced, "chunked.npcpu"); len(runs) > 0 {
		st = runs[len(runs)-1].stats
	}
	add("core.barriers", "count", st.barriers)
	add("core.loops", "count", st.loops)
	add("core.reductions", "count", st.reductions)
	add("core.askfor_tasks", "count", st.askforTasks)
	add("core.criticals", "count", st.criticals)

	// Computed, not measured: the counts times the probe costs, as a
	// share of the interpreter's run at npcpu.  Criticals have no probe.
	est := st.barriers*probes["barrier.episode_ns.npcpu"] +
		st.loops*probes["core.doall_ns.npcpu"] +
		st.reductions*probes["reduce.gsum_ns.npcpu"] +
		st.askforTasks*probes["engine.askfor_task_ns.npcpu"] +
		float64(b.w.hops*b.npcpu)*probes["asyncvar.handoff_ns.npcpu"]
	add("core.sync_est_share.npcpu", "ratio", ratio(est/1e9, interpNP))
	untraced, tracedWall := runWall(plain), runWall(traced)
	add("trace.overhead_frac", "ratio", ratio(tracedWall-untraced, untraced))

	refTimes := make([]float64, 5)
	for i := range refTimes {
		start := time.Now()
		b.w.expect(b.npcpu)
		refTimes[i] = time.Since(start).Seconds()
	}
	add("ref.go_s", "s", median(refTimes))
	add("fail_frac", "ratio", ratio(float64(b.failed), float64(b.attempted)))
	return ms, tr
}

// mergeAll concatenates the samples of configuration k across passes.
func mergeAll(passes []map[string][]sample, k string) []sample {
	var all []sample
	for _, p := range passes {
		all = append(all, p[k]...)
	}
	return all
}

// runWall sums the per-configuration median wall times of passes.
func runWall(passes []map[string][]sample) float64 {
	total := 0.0
	for _, k := range []string{"chunked.np1", "chunked.npcpu", "aot.np1", "aot.npcpu"} {
		total += median(field(mergeAll(passes, k), func(s sample) float64 { return s.wall }))
	}
	return total
}

// layerLoop times fn as spans named name, repeated for about 150ms and
// at least five times.
func layerLoop(tr *tracer, name string, fn func() error) {
	deadline := time.Now().Add(150 * time.Millisecond)
	for i := 0; i < 5 || time.Now().Before(deadline); i++ {
		sp := tr.begin(name)
		err := fn()
		tr.end(sp)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", name, err)
			return
		}
	}
}

// frontProbe times the front end, vet, the interpreter (compile plus a
// trivial execution, at np=1, output checked) and codegen on the large
// generated program, where the workloads' own few dozen lines leave
// these layers under a millisecond.  Each call is a span named after
// the layer with a ".frontend" suffix.
func (b *bench) frontProbe(tr *tracer) {
	src := b.front.src
	prog, err := forcelang.Parse(src)
	if !b.record("frontend parse", err) {
		return
	}
	want := b.front.expect(1)
	layerLoop(tr, "forcelang.parse.frontend", func() error { _, err := forcelang.Parse(src); return err })
	layerLoop(tr, "forcelang.check.frontend", func() error { return forcelang.Check(prog) })
	layerLoop(tr, "vet.analyze.frontend", func() error { _, err := vet.Analyze(prog); return err })
	layerLoop(tr, "interp.run.frontend", func() error {
		var out bytes.Buffer
		err := interp.Run(prog, interp.Config{NP: 1, Stdout: &out})
		if err == nil {
			err = checkOutput(out.String(), want)
		}
		b.record("frontend interp.Run", err)
		return err
	})
	layerLoop(tr, "codegen.generate.frontend", func() error {
		_, err := codegen.Generate(prog, codegen.Options{Package: "main"})
		return err
	})
}

// launchSrc is the trivial program whose aot run times fork/exec and
// force start-up alone.
const launchSrc = "Force NOP of NP ident ME\nEnd Declarations\nJoin\n"

// launchProbe builds the trivial program and returns the median wall
// time of its RunContext at npcpu, each run a span.
func (b *bench) launchProbe(tr *tracer) float64 {
	cache, e, _, err := b.build(launchSrc, "aot.ensure.launch")
	if !b.record("aot launch set-up", err) {
		return 0
	}
	defer os.RemoveAll(cache.Dir())
	var times []float64
	layerLoop(tr, "aot.launch", func() error {
		ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
		defer cancel()
		start := time.Now()
		err := e.RunContext(ctx, b.npcpu, &bytes.Buffer{})
		times = append(times, time.Since(start).Seconds())
		return err
	})
	return median(times)
}
