package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/aot"
	"repro/internal/apps"
	"repro/internal/asyncvar"
	"repro/internal/barrier"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/forcelang"
	"repro/internal/interp"
	"repro/internal/lock"
	"repro/internal/machine"
	"repro/internal/maclib"
	"repro/internal/poison"
	"repro/internal/reduce"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workload"
)

// expF1 prints the paper's own example through the two-pass pipeline with
// the generic machine layer — the reproduction of the expansion listing.
func expF1(c config) error {
	src := "Selfsched DO 100 K = START, LAST, INCR\n" +
		"C (* LOOPBODY *)\n" +
		"100 End Selfsched DO\n"
	out, err := maclib.Expand("generic", src)
	if err != nil {
		return err
	}
	fmt.Println("input:")
	fmt.Print(src)
	fmt.Println("\nexpansion (machine layer: generic — lock/unlock stay symbolic as in the paper):")
	fmt.Println(out)
	return nil
}

// expT1 runs the conformance checklist on every machine profile.
func expT1(c config) error {
	np := 4
	if c.maxNP < np {
		np = c.maxNP
	}
	tbl := &stats.Table{
		Title:  fmt.Sprintf("construct conformance, np=%d", np),
		Header: []string{"machine", "locks", "async", "creation", "sharing", "result"},
		Notes:  []string{"each cell runs the full construct checklist (driver, barriers, DOALLs, Pcase, Askfor, Resolve, produce/consume, memory layout)"},
	}
	for _, m := range machine.All() {
		result := "OK"
		if err := core.Conformance(m, np); err != nil {
			result = "FAIL: " + err.Error()
		}
		tbl.AddRow(m.Name, m.Lock.String(), m.Async.String(), m.Creation.String(), m.ShmPolicy.String(), result)
	}
	return tbl.Render(os.Stdout)
}

// expT2 times barrier episodes for every algorithm over a force-size
// sweep.
func expT2(c config) error {
	episodes := 2000
	if c.quick {
		episodes = 300
	}
	tbl := &stats.Table{
		Title:  "time per barrier episode (µs)",
		Header: append([]string{"algorithm"}, npHeaders(c.npSweep())...),
		Notes:  []string{fmt.Sprintf("%d episodes per measurement, %d repetitions, median reported", episodes, c.runs)},
	}
	for _, bk := range barrier.Kinds() {
		row := []any{bk.String()}
		for _, np := range c.npSweep() {
			b := barrier.New(bk, np, lock.Factory(lock.TTAS))
			s := stats.Time(c.runs, func() {
				runForce(np, func(pid int) {
					for e := 0; e < episodes; e++ {
						b.Sync(pid, nil)
					}
				})
			})
			row = append(row, s.Median()/float64(episodes)*1e6)
		}
		tbl.AddRow(row...)
	}
	return tbl.Render(os.Stdout)
}

// expT3 compares scheduling disciplines on uniform, triangular and bursty
// iteration costs.
func expT3(c config) error {
	n := 2048
	unit := 60
	if c.quick {
		n, unit = 512, 40
	}
	costs := []struct {
		name string
		cost workload.Cost
	}{
		{"uniform", workload.Uniform(unit * 8)},
		{"triangular", workload.Triangular(unit * 16 / n)},
		{"bursty", workload.Bursty(unit, unit*64, 37)},
	}
	kinds := []sched.Kind{sched.PreschedBlock, sched.PreschedCyclic, sched.SelfLock, sched.SelfAtomic, sched.Chunk, sched.Guided, sched.Stealing}
	for _, cm := range costs {
		tbl := &stats.Table{
			Title:  fmt.Sprintf("DOALL wall time (ms), %s cost, n=%d", cm.name, n),
			Header: append([]string{"discipline"}, npHeaders(c.npSweep())...),
		}
		for _, k := range kinds {
			row := []any{k.String()}
			for _, np := range c.npSweep() {
				f := c.force(np, core.WithChunk(16))
				s := stats.Time(c.runs, func() {
					f.Run(func(p *core.Proc) {
						p.DoAll(k, sched.Seq(n), func(i int) {
							workload.SpinSink += workload.Spin(cm.cost(i))
						})
					})
				})
				f.Close()
				row = append(row, s.Median()*1e3)
			}
			tbl.AddRow(row...)
		}
		if err := tbl.Render(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

// expT4 measures lock acquire+release cost under varying contention and
// hold times.
func expT4(c config) error {
	acquires := 20000
	if c.quick {
		acquires = 3000
	}
	for _, hold := range []int{0, 300} {
		tbl := &stats.Table{
			Title:  fmt.Sprintf("lock acquire+release (ns), hold=%d spin units", hold),
			Header: append([]string{"lock"}, npHeaders(c.npSweep())...),
			Notes:  []string{"Sequent/Encore used tas, Cray system locks, Flex combined (§4.1.3)"},
		}
		for _, lk := range lock.Kinds() {
			row := []any{lk.String()}
			for _, np := range c.npSweep() {
				l := lock.New(lk)
				perProc := acquires / np
				s := stats.Time(c.runs, func() {
					runForce(np, func(pid int) {
						for i := 0; i < perProc; i++ {
							l.Lock()
							if hold > 0 {
								workload.SpinSink += workload.Spin(hold)
							}
							l.Unlock()
						}
					})
				})
				row = append(row, s.Median()/float64(perProc*np)*1e9*float64(np))
			}
			tbl.AddRow(row...)
		}
		if err := tbl.Render(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

// expT5 measures produce/consume transfer rates for the three async
// realizations, unbound, plus the full/empty cell bound to a cell that
// lets its waiters spin, as a force of two processes on two or more
// CPUs binds it.
func expT5(c config) error {
	items := 100000
	if c.quick {
		items = 10000
	}
	tbl := &stats.Table{
		Title:  "async variable transfers per second (1 producer, 1 consumer)",
		Header: []string{"realization", "transfers/s"},
		Notes: []string{
			"fullempty stands for the HEP hardware full/empty bit (one atomic state word per cell); twolock is every other machine (§4.2)",
			"unbound fullempty waiters park at once; fullempty+spin is bound to a cell that lets them spin first (GOMAXPROCS >= 2 only)",
		},
	}
	row := func(name string, v asyncvar.V[int]) {
		s := stats.Time(c.runs, func() {
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < items; i++ {
					v.Produce(i)
				}
			}()
			for i := 0; i < items; i++ {
				v.Consume()
			}
			wg.Wait()
		})
		tbl.AddRow(name, float64(items)/s.Median())
	}
	for _, impl := range asyncvar.Impls() {
		row(impl.String(), asyncvar.New[int](impl, lock.Factory(lock.TTAS)))
	}
	if runtime.GOMAXPROCS(0) >= 2 {
		cell := poison.NewCell()
		cell.SetSpin(true)
		v := asyncvar.New[int](asyncvar.FullEmpty, nil)
		asyncvar.SetPoison(v, cell)
		row(asyncvar.FullEmpty.String()+"+spin", v)
	}
	return tbl.Render(os.Stdout)
}

// expT6 measures force creation per creation model, and the per-Run
// handoff the persistent engine replaces it with.  The paper's driver
// paid creation on every force startup; this runtime pays it once at
// core.New, so the experiment reports both halves: the one-time creation
// (New + empty Run + Close, where the machine's creation cost lives) and
// the steady-state cost of re-Running a program on the existing workers.
func expT6(c config) error {
	tbl := &stats.Table{
		Title:  "force creation latency (µs): New NP workers, run empty program, join, Close",
		Header: append([]string{"machine (model)"}, npHeaders(c.npSweep())...),
		Notes: []string{
			"fork-copy ≫ shared fork ≫ create-call is the paper's §4.1.1 ordering",
			"costs are scaled stand-ins (machine.Profile.CreationCost), not 1989 measurements",
			"paid once per force: see the reuse table below for what later Runs cost",
		},
	}
	for _, m := range []machine.Profile{machine.Encore, machine.Sequent, machine.Cray2, machine.Flex32, machine.Alliant, machine.HEP, machine.Native} {
		row := []any{fmt.Sprintf("%s (%s)", m.Name, m.Creation)}
		for _, np := range c.npSweep() {
			s := stats.Time(c.runs, func() {
				f := core.New(np, core.WithMachine(m))
				f.Run(func(p *core.Proc) {})
				f.Close()
			})
			row = append(row, s.Median()*1e6)
		}
		tbl.AddRow(row...)
	}
	if err := tbl.Render(os.Stdout); err != nil {
		return err
	}
	tbl2 := &stats.Table{
		Title:  "force reuse handoff: empty Run on an already-created force",
		Header: append([]string{"machine / metric"}, npHeaders(c.npSweep())...),
		Notes: []string{
			"machine-independent by construction: the creation cost was paid at New",
			"allocs/run is the runtime's steady-state heap traffic per Run — 0 is the contract the chunk tier's pools defend",
		},
	}
	for _, m := range []machine.Profile{machine.Encore, machine.Native} {
		trow := []any{m.Name + " µs"}
		arow := []any{m.Name + " allocs/run"}
		for _, np := range c.npSweep() {
			f := core.New(np, core.WithMachine(m))
			times, allocs := stats.TimeAllocs(c.runs, func() {
				f.Run(func(p *core.Proc) {})
			})
			f.Close()
			trow = append(trow, times.Median()*1e6)
			arow = append(arow, allocs.Median())
		}
		tbl2.AddRow(trow...)
		tbl2.AddRow(arow...)
	}
	return tbl2.Render(os.Stdout)
}

// expT7 measures Pcase block dispatch and Askfor dynamic-tree throughput.
func expT7(c config) error {
	blocks := 64
	rounds := 200
	depth := 14
	if c.quick {
		rounds, depth = 40, 10
	}
	tbl := &stats.Table{
		Title:  "Pcase dispatch (µs per block)",
		Header: append([]string{"variant"}, npHeaders(c.npSweep())...),
	}
	for _, selfsched := range []bool{false, true} {
		name := "presched"
		if selfsched {
			name = "selfsched"
		}
		row := []any{name}
		for _, np := range c.npSweep() {
			f := c.force(np)
			bl := make([]core.Block, blocks)
			for i := range bl {
				bl[i] = core.Case(func() { workload.SpinSink += workload.Spin(50) })
			}
			s := stats.Time(c.runs, func() {
				f.Run(func(p *core.Proc) {
					for r := 0; r < rounds; r++ {
						if selfsched {
							p.SelfschedPcase(bl...)
						} else {
							p.Pcase(bl...)
						}
					}
				})
			})
			f.Close()
			row = append(row, s.Median()/float64(rounds*blocks)*1e6)
		}
		tbl.AddRow(row...)
	}
	if err := tbl.Render(os.Stdout); err != nil {
		return err
	}

	tbl2 := &stats.Table{
		Title:  fmt.Sprintf("Askfor dynamic binary tree, depth %d (%d tasks): tasks/second", depth, 1<<depth-1),
		Header: append([]string{"workload"}, npHeaders(c.npSweep())...),
	}
	for _, grain := range []int{0, 500} {
		row := []any{fmt.Sprintf("grain=%d", grain)}
		for _, np := range c.npSweep() {
			f := c.force(np)
			s := stats.Time(c.runs, func() {
				f.Run(func(p *core.Proc) {
					p.Askfor([]any{1}, func(task any, put func(any)) {
						d := task.(int)
						if grain > 0 {
							workload.SpinSink += workload.Spin(grain)
						}
						if d < depth {
							put(d + 1)
							put(d + 1)
						}
					})
				})
			})
			f.Close()
			tasks := float64(int(1)<<depth - 1)
			row = append(row, tasks/s.Median())
		}
		tbl2.AddRow(row...)
	}
	return tbl2.Render(os.Stdout)
}

// expT8 reports application speedups over the sequential baselines.  The
// forces use the scheduler-parking barrier (the winner of T2 on this
// substrate): picking the right barrier per machine is exactly the
// flexibility the Force's layering buys, and with the paper's two-lock
// barrier the fine-grained codes are barrier-bound (see EXPERIMENTS.md).
func expT8(c config) error {
	size := 256
	scanN := 1 << 18
	sweeps := 100
	if c.quick {
		size, scanN, sweeps = 96, 1<<15, 20
	}
	a := workload.Matrix(size, 1)
	b := workload.Matrix(size, 2)
	// Gauss pays two barriers per pivot column; it needs a larger system
	// before the per-pivot row work amortizes them (the grain-size
	// effect of §4.1.1).
	gaussN := size * 2
	sysA, sysB, _ := workload.SystemWithSolution(gaussN, 3)
	grid := workload.Grid(size)
	vec := workload.Vector(scanN, 4)

	type app struct {
		name string
		seq  func()
		par  func(f *core.Force)
	}
	defs := []app{
		{
			name: fmt.Sprintf("matmul %d^2 (selfsched)", size),
			seq:  func() { apps.SeqMatMul(a, b, size) },
			par:  func(f *core.Force) { apps.MatMul(f, sched.SelfAtomic, a, b, size) },
		},
		{
			name: fmt.Sprintf("gauss %d (barrier+DOALL)", gaussN),
			seq:  func() { _, _ = apps.SeqSolve(sysA, sysB, gaussN) },
			par:  func(f *core.Force) { _, _ = apps.Solve(f, sysA, sysB, gaussN) },
		},
		{
			name: fmt.Sprintf("jacobi %d^2, %d sweeps", size, sweeps),
			seq:  func() { apps.SeqJacobi(grid, size, 0, sweeps) },
			par:  func(f *core.Force) { apps.Jacobi(f, grid, size, 0, sweeps) },
		},
		{
			name: fmt.Sprintf("scan n=%d (log-step)", scanN),
			seq:  func() { apps.SeqScan(vec) },
			par:  func(f *core.Force) { apps.Scan(f, vec) },
		},
		{
			name: "quadrature (Askfor, costly spike integrand)",
			seq:  func() { apps.SeqQuad(apps.Costly(apps.Spike, 2000), 0, 1, 1e-10) },
			par:  func(f *core.Force) { apps.Quad(f, apps.Costly(apps.Spike, 2000), 0, 1, 1e-10) },
		},
		{
			name: "nbody 512, 3 steps (compute-bound)",
			seq: func() {
				b := apps.NewBodies(512)
				for s := 0; s < 3; s++ {
					apps.SeqNBodyStep(b, 1e-4)
				}
			},
			par: func(f *core.Force) {
				b := apps.NewBodies(512)
				apps.NBodySteps(f, sched.Chunk, b, 1e-4, 3)
			},
		},
		{
			// Control: pure spin work with no shared-memory traffic.
			// Near-linear scaling here isolates the memory-bandwidth
			// ceiling the stencil codes hit on shared hardware.
			name: "spin control (no memory traffic)",
			seq: func() {
				for i := 0; i < 256; i++ {
					workload.SpinSink += workload.Spin(20000)
				}
			},
			par: func(f *core.Force) {
				f.Run(func(p *core.Proc) {
					p.ChunkDo(sched.Seq(256), func(i int) {
						workload.SpinSink += workload.Spin(20000)
					})
				})
			},
		},
	}
	tbl := &stats.Table{
		Title:  "application speedup vs sequential baseline",
		Header: append([]string{"application", "seq ms"}, npHeaders(c.npSweep())...),
		Notes: []string{
			"cells are speedups (seq time / parallel time); forces use the cond barrier (T2 winner here)",
			"the log-step scan performs ~log2(n) times the sequential work: watch its scaling across np, not the absolute value",
		},
	}
	for _, d := range defs {
		seqS := stats.Time(c.runs, d.seq)
		row := []any{d.name, seqS.Median() * 1e3}
		for _, np := range c.npSweep() {
			f := c.force(np, core.WithBarrier(barrier.CondBroadcast))
			parS := stats.Time(c.runs, func() { d.par(f) })
			f.Close()
			row = append(row, stats.Speedup(seqS.Median(), parS.Median()))
		}
		tbl.AddRow(row...)
	}
	return tbl.Render(os.Stdout)
}

// askforCell is one T9 measurement, the machine-readable record the
// -json flag emits so later revisions can track the perf trajectory.
type askforCell struct {
	Pool        string  `json:"pool"`
	NP          int     `json:"np"`
	Grain       int     `json:"grain"`
	Depth       int     `json:"depth"`
	Tasks       int     `json:"tasks"`
	SecondsMed  float64 `json:"seconds_median"`
	TasksPerSec float64 `json:"tasks_per_sec"`
}

// askforReport is the top-level JSON document.
type askforReport struct {
	Experiment string       `json:"experiment"`
	GoMaxProcs int          `json:"gomaxprocs"`
	NumCPU     int          `json:"numcpu"`
	Runs       int          `json:"runs"`
	Results    []askforCell `json:"results"`
}

// expT9 is the engine experiment: the same put-heavy Askfor workload (a
// dynamic binary tree whose nodes put two children each — maximal
// run-time work generation) drained through the [LO83]-style central
// monitor pool and through the engine's per-process stealing deques,
// across NP and task grain.  The monitor serializes every put and get on
// one lock; the deques make both a local array operation, which is
// exactly where the two curves separate as NP grows and grain shrinks.
func expT9(c config) error {
	depth := 14
	if c.quick {
		depth = 10
	}
	tasks := 1<<depth - 1
	report := askforReport{Experiment: "askfor-distribution", GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), Runs: c.runs}
	for _, grain := range []int{0, 500} {
		tbl := &stats.Table{
			Title:  fmt.Sprintf("Askfor dynamic tree, depth %d (%d tasks), grain=%d: tasks/second", depth, tasks, grain),
			Header: append([]string{"pool"}, npHeaders(c.npSweep())...),
			Notes:  []string{"monitor = central mutex+condvar queue [LO83]; stealing = per-process Chase-Lev deques, steal-half on miss"},
		}
		for _, kind := range engine.PoolKinds() {
			row := []any{kind.String()}
			for _, np := range c.npSweep() {
				f := c.force(np, core.WithAskfor(kind))
				s := stats.Time(c.runs, func() {
					f.Run(func(p *core.Proc) {
						p.Askfor([]any{1}, func(task any, put func(any)) {
							d := task.(int)
							if grain > 0 {
								workload.SpinSink += workload.Spin(grain)
							}
							if d < depth {
								put(d + 1)
								put(d + 1)
							}
						})
					})
				})
				f.Close()
				med := s.Median()
				row = append(row, float64(tasks)/med)
				report.Results = append(report.Results, askforCell{
					Pool: kind.String(), NP: np, Grain: grain, Depth: depth,
					Tasks: tasks, SecondsMed: med, TasksPerSec: float64(tasks) / med,
				})
			}
			tbl.AddRow(row...)
		}
		if err := tbl.Render(os.Stdout); err != nil {
			return err
		}
	}
	if c.jsonPath != "" {
		blob, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(c.jsonPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d cells)\n", c.jsonPath, len(report.Results))
	}
	return nil
}

// reduceCell is one T10 measurement, the machine-readable record the
// -json flag emits (BENCH_reduce.json).
type reduceCell struct {
	Strategy   string  `json:"strategy"`
	NP         int     `json:"np"`
	Config     string  `json:"config"` // "light" or "heavy" (reductions per run)
	Ops        int     `json:"ops"`    // reductions per run
	Op         string  `json:"op"`     // reduced operator/element type
	SecondsMed float64 `json:"seconds_median"`
	MicrosPer  float64 `json:"micros_per_reduction"`
	PerSec     float64 `json:"reductions_per_sec"`
}

// reduceReport is the top-level T10 JSON document.
type reduceReport struct {
	Experiment string       `json:"experiment"`
	GoMaxProcs int          `json:"gomaxprocs"`
	Runs       int          `json:"runs"`
	Results    []reduceCell `json:"results"`
}

// expT10 is the reduction-subsystem experiment: the same global-sum
// workload (every process contributes, everyone receives the total —
// the hot collective of every SPMD kernel) executed through all four
// strategies, across NP and operation counts.  The light configuration
// is a handful of reductions per run (startup-dominated); the heavy
// configuration is a reduction-dense convergence loop, where strategy
// differences compound.  The Critical strategy serializes every
// contribution on one lock — the paper's idiom; slots make contribution
// a private store, the tree bounds the combine depth, and atomic makes
// the integer fold a CAS.
func expT10(c config) error {
	configs := []struct {
		name string
		ops  int
	}{
		// light: a handful of reductions per run, startup-dominated.
		{"light", 64},
		// put-heavy: short bursts from a fresh dispatch — contributions
		// hit the episodes concurrently, the maximal-pressure regime
		// where the critical strategy's lock actually contends (the T9
		// "put-heavy" analog for reductions).
		{"put-heavy", 256},
		// steady: a reduction-dense convergence loop; arrivals
		// self-stagger into a pipeline, so per-episode strategy cost
		// dominates over contention.
		{"steady", 4096},
	}
	if c.quick {
		configs[0].ops = 16
		configs[1].ops = 64
		configs[2].ops = 512
	}
	report := reduceReport{Experiment: "reduce-strategies", GoMaxProcs: runtime.GOMAXPROCS(0), Runs: c.runs}
	for _, cfg := range configs {
		tbl := &stats.Table{
			Title:  fmt.Sprintf("global int sum, %s (%d reductions per run): µs per reduction", cfg.name, cfg.ops),
			Header: append([]string{"strategy"}, npHeaders(c.npSweep())...),
			Notes: []string{
				"critical = shared accumulator under one machine lock (the paper's idiom)",
				"slots = padded per-process slots folded in pid order; tree = combining tree; atomic = CAS fold",
			},
		}
		for _, kind := range reduce.Kinds() {
			row := []any{kind.String()}
			for _, np := range c.npSweep() {
				f := c.force(np, core.WithReduce(kind))
				ops := cfg.ops
				s := stats.Time(c.runs, func() {
					f.Run(func(p *core.Proc) {
						acc := 0
						for r := 0; r < ops; r++ {
							acc = core.Gsum(p, acc%7+p.ID())
						}
						workload.SpinSink += uint64(acc)
					})
				})
				f.Close()
				med := s.Median()
				row = append(row, med/float64(ops)*1e6)
				report.Results = append(report.Results, reduceCell{
					Strategy: kind.String(), NP: np, Config: cfg.name, Ops: ops, Op: "sum-int",
					SecondsMed: med, MicrosPer: med / float64(ops) * 1e6, PerSec: float64(ops) / med,
				})
			}
			tbl.AddRow(row...)
		}
		if err := tbl.Render(os.Stdout); err != nil {
			return err
		}
	}
	// A float argmax-style reduction exercises the generic path (Atomic
	// falls back to slots here: no integer representation).
	ops := 1024
	if c.quick {
		ops = 128
	}
	tbl := &stats.Table{
		Title:  fmt.Sprintf("global float64 max, %d reductions per run: µs per reduction", ops),
		Header: append([]string{"strategy"}, npHeaders(c.npSweep())...),
		Notes:  []string{"atomic has no float64 CAS representation and falls back to slots"},
	}
	for _, kind := range reduce.Kinds() {
		row := []any{kind.String()}
		for _, np := range c.npSweep() {
			f := c.force(np, core.WithReduce(kind))
			s := stats.Time(c.runs, func() {
				f.Run(func(p *core.Proc) {
					x := float64(p.ID())
					for r := 0; r < ops; r++ {
						x = core.Gmax(p, x*0.5+1)
					}
				})
			})
			f.Close()
			med := s.Median()
			row = append(row, med/float64(ops)*1e6)
			report.Results = append(report.Results, reduceCell{
				Strategy: kind.String(), NP: np, Config: "float-max", Ops: ops, Op: "max-float64",
				SecondsMed: med, MicrosPer: med / float64(ops) * 1e6, PerSec: float64(ops) / med,
			})
		}
		tbl.AddRow(row...)
	}
	if err := tbl.Render(os.Stdout); err != nil {
		return err
	}
	if c.jsonPath != "" {
		blob, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(c.jsonPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d cells)\n", c.jsonPath, len(report.Results))
	}
	return nil
}

// expA1 times the paper's two-lock barrier over every lock category.
func expA1(c config) error {
	episodes := 2000
	if c.quick {
		episodes = 300
	}
	tbl := &stats.Table{
		Title:  "two-lock barrier over lock kinds: µs per episode",
		Header: append([]string{"lock"}, npHeaders(c.npSweep())...),
	}
	for _, lk := range lock.Kinds() {
		row := []any{lk.String()}
		for _, np := range c.npSweep() {
			b := barrier.NewTwoLock(np, lock.Factory(lk))
			s := stats.Time(c.runs, func() {
				runForce(np, func(pid int) {
					for e := 0; e < episodes; e++ {
						b.Sync(pid, nil)
					}
				})
			})
			row = append(row, s.Median()/float64(episodes)*1e6)
		}
		tbl.AddRow(row...)
	}
	return tbl.Render(os.Stdout)
}

// expA2 sweeps the selfscheduling chunk size on a fine-grained loop.
func expA2(c config) error {
	n := 1 << 15
	if c.quick {
		n = 1 << 12
	}
	np := c.maxNP
	if np > 8 {
		np = 8
	}
	tbl := &stats.Table{
		Title:  fmt.Sprintf("selfsched chunk size, n=%d light iterations, np=%d: ms", n, np),
		Header: []string{"chunk", "uniform", "bursty"},
	}
	bursty := workload.Bursty(5, 2000, 61)
	for _, chunk := range []int{1, 4, 16, 64, 256} {
		f := c.force(np, core.WithChunk(chunk))
		u := stats.Time(c.runs, func() {
			f.Run(func(p *core.Proc) {
				p.ChunkDo(sched.Seq(n), func(i int) { workload.SpinSink += workload.Spin(5) })
			})
		})
		bt := stats.Time(c.runs, func() {
			f.Run(func(p *core.Proc) {
				p.ChunkDo(sched.Seq(n), func(i int) { workload.SpinSink += workload.Spin(bursty(i)) })
			})
		})
		f.Close()
		tbl.AddRow(chunk, u.Median()*1e3, bt.Median()*1e3)
	}
	// Guided for reference.
	f := c.force(np)
	defer f.Close()
	u := stats.Time(c.runs, func() {
		f.Run(func(p *core.Proc) {
			p.GuidedDo(sched.Seq(n), func(i int) { workload.SpinSink += workload.Spin(5) })
		})
	})
	bt := stats.Time(c.runs, func() {
		f.Run(func(p *core.Proc) {
			p.GuidedDo(sched.Seq(n), func(i int) { workload.SpinSink += workload.Spin(bursty(i)) })
		})
	})
	tbl.AddRow("guided", u.Median()*1e3, bt.Median()*1e3)
	return tbl.Render(os.Stdout)
}

// --- helpers ------------------------------------------------------------

func npHeaders(nps []int) []string {
	out := make([]string, len(nps))
	for i, np := range nps {
		out[i] = fmt.Sprintf("np=%d", np)
	}
	return out
}

// runForce launches np goroutines as raw force processes (no core.Force
// driver) for microbenchmarks of bare primitives.
func runForce(np int, body func(pid int)) {
	var wg sync.WaitGroup
	for p := 0; p < np; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			body(pid)
		}(p)
	}
	wg.Wait()
}

var _ = time.Now // time is used by stats only; keep import sets stable

// interpCell is one T11 measurement, the machine-readable record the
// -json flag emits (BENCH_interp.json).
type interpCell struct {
	Exec        string  `json:"exec"`
	Kernel      string  `json:"kernel"`
	NP          int     `json:"np"`
	Iters       int     `json:"iters"` // kernel-body executions per run
	SecondsMed  float64 `json:"seconds_median"`
	MicrosPer   float64 `json:"micros_per_iter"`
	ItersPerSec float64 `json:"iters_per_sec"`
	AllocsRun   float64 `json:"allocs_per_run"` // heap allocations per Run (parse-to-exit, compile included)
}

// interpReport is the top-level T11 JSON document.
type interpReport struct {
	Experiment string       `json:"experiment"`
	GoMaxProcs int          `json:"gomaxprocs"`
	Runs       int          `json:"runs"`
	Results    []interpCell `json:"results"`
}

// expT11 is the interpreter experiment: the same Force kernels executed
// by the original tree walker (names resolved through string maps on
// every access, all shared storage serialized by one mutex), by the
// slot-resolved closure compiler (index-addressed frames, per-variable
// atomic cells and lock-striped arrays), and by the chunk tier on top
// of it (uniform subexpressions hoisted out of the loop, whole spans
// run as tight loops, disjoint shared-array traffic through the striped
// store's bulk walker), across NP.
//
// The shared-heavy kernel is scalar shared traffic — every iteration
// reads and writes shared scalars, the access pattern the global mutex
// penalizes even single-process (map lookup + lock per access).  The
// disjoint-writes kernel sweeps a shared array with each iteration
// touching its own element: under the tree walker every element store
// serializes on the one mutex regardless of NP; under the striped store
// disjoint elements take disjoint stripes.
func expT11(c config) error {
	sharedN := 200000
	arrayN, sweeps := 4096, 50
	if c.quick {
		sharedN = 20000
		arrayN, sweeps = 1024, 10
	}
	type kernel struct {
		name  string
		src   string
		iters int
	}
	kernels := []kernel{
		{
			name: "shared-heavy",
			src: fmt.Sprintf(`Force SHEAVY of NP ident ME
Shared Real ACC
Shared Integer TICKS
Private Integer I
Private Real X
End Declarations
Presched DO I = 1, %d
  X = REAL(I) * 0.5
  ACC = ACC + X
  TICKS = TICKS + 1
End Presched DO
Barrier
End Barrier
Join
`, sharedN),
			iters: sharedN,
		},
		{
			name: "disjoint-writes",
			src: fmt.Sprintf(`Force DISJ of NP ident ME
Shared Real A(%d)
Private Integer I, S
End Declarations
Presched DO I = 1, %d
  A(I) = REAL(I)
End Presched DO
DO S = 1, %d
  Presched DO I = 1, %d
    A(I) = A(I) * 0.999 + REAL(I) * 0.001
  End Presched DO
End DO
Join
`, arrayN, arrayN, sweeps, arrayN),
			iters: arrayN * sweeps,
		},
	}
	report := interpReport{Experiment: "interp-throughput", GoMaxProcs: runtime.GOMAXPROCS(0), Runs: c.runs}
	perSec := map[string]map[int]float64{} // exec/kernel → np → iters/s
	for _, k := range kernels {
		prog, err := forcelang.Parse(k.src)
		if err != nil {
			return err
		}
		tbl := &stats.Table{
			Title:  fmt.Sprintf("interp %s kernel (%d iterations): µs per iteration", k.name, k.iters),
			Header: append([]string{"engine"}, npHeaders(c.npSweep())...),
			Notes: []string{
				"tree = map-addressed walker, one mutex around all shared storage",
				"compiled = slot-resolved typed closures, per-variable atomic cells + striped arrays",
				"chunked = compiled plus chunk tier: uniform hoisting, bulk striped-store walker, per-span tight loops",
			},
		}
		atbl := &stats.Table{
			Title:  fmt.Sprintf("interp %s kernel: heap allocations per Run (allocs/op, compile included)", k.name),
			Header: append([]string{"engine"}, npHeaders(c.npSweep())...),
			Notes:  []string{"one Run = parse-to-exit; the chunk tier's per-site pools keep the loop body itself allocation-free"},
		}
		for _, mode := range interp.ExecModes() {
			key := mode.String() + "/" + k.name
			perSec[key] = map[int]float64{}
			row := []any{mode.String()}
			arow := []any{mode.String()}
			for _, np := range c.npSweep() {
				cfg := interp.Config{NP: np, Stdout: io.Discard, Exec: mode, Chunk: c.chunk}
				if c.barSet {
					cfg.Barrier = c.barKind
				}
				var runErr error
				times, allocs := stats.TimeAllocs(c.runs, func() {
					if err := interp.Run(prog, cfg); err != nil && runErr == nil {
						runErr = err
					}
				})
				if runErr != nil {
					return runErr
				}
				med := times.Median()
				row = append(row, med/float64(k.iters)*1e6)
				arow = append(arow, allocs.Median())
				perSec[key][np] = float64(k.iters) / med
				report.Results = append(report.Results, interpCell{
					Exec: mode.String(), Kernel: k.name, NP: np, Iters: k.iters,
					SecondsMed: med, MicrosPer: med / float64(k.iters) * 1e6,
					ItersPerSec: float64(k.iters) / med,
					AllocsRun:   allocs.Median(),
				})
			}
			tbl.AddRow(row...)
			atbl.AddRow(arow...)
		}
		if err := tbl.Render(os.Stdout); err != nil {
			return err
		}
		if err := atbl.Render(os.Stdout); err != nil {
			return err
		}
	}
	// Acceptance summary: single-process compiled-vs-tree on the scalar
	// kernel, chunked-vs-compiled on both kernels (the chunk tier's
	// speedup over its per-iteration A/B baseline), and the compiled
	// engine's self-relative scaling on the disjoint kernel (meaningful
	// only when GOMAXPROCS allows overlap).
	if tree, comp := perSec["tree/shared-heavy"][1], perSec["compiled/shared-heavy"][1]; tree > 0 {
		fmt.Printf("compiled vs tree, shared-heavy, np=1: %.2fx\n", comp/tree)
	}
	if comp, ch := perSec["compiled/shared-heavy"][1], perSec["chunked/shared-heavy"][1]; comp > 0 {
		fmt.Printf("chunked vs compiled, shared-heavy, np=1: %.2fx\n", ch/comp)
	}
	if comp, ch := perSec["compiled/disjoint-writes"][1], perSec["chunked/disjoint-writes"][1]; comp > 0 {
		fmt.Printf("chunked vs compiled, disjoint-writes, np=1: %.2fx\n", ch/comp)
	}
	nps := c.npSweep()
	last := nps[len(nps)-1]
	if base, top := perSec["compiled/disjoint-writes"][1], perSec["compiled/disjoint-writes"][last]; base > 0 && last > 1 {
		fmt.Printf("compiled self-relative scaling, disjoint-writes, np=1→%d: %.2fx (GOMAXPROCS=%d)\n",
			last, top/base, runtime.GOMAXPROCS(0))
	}
	if c.jsonPath != "" {
		blob, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(c.jsonPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d cells)\n", c.jsonPath, len(report.Results))
	}
	return nil
}

// aotCell is one T12 measurement.  Tier is "chunked-interp" (the best
// interpreter engine, T12's baseline), "aot-warm" (the cached native
// binary, launch included) or "aot-build" (the one-time cold `go
// build`, recorded once per kernel with NP 0).
type aotCell struct {
	Tier        string  `json:"tier"`
	Kernel      string  `json:"kernel"`
	NP          int     `json:"np"`
	Iters       int     `json:"iters"`
	SecondsMed  float64 `json:"seconds_median"`
	MicrosPer   float64 `json:"micros_per_iter"`
	ItersPerSec float64 `json:"iters_per_sec"`
}

// aotReport is the top-level T12 JSON document (BENCH_aot.json).
// LaunchMillis is the median wall time of a warm repeat launch of a
// trivial program — the tier's fixed cost: fork/exec plus runtime
// start-up, no build, no interpretation.
type aotReport struct {
	Experiment   string    `json:"experiment"`
	GoMaxProcs   int       `json:"gomaxprocs"`
	Runs         int       `json:"runs"`
	LaunchMillis float64   `json:"warm_launch_millis"`
	Results      []aotCell `json:"results"`
}

// expT12 is the execution-tier experiment: the T11 kernels run by the
// chunked interpreter (the fastest interpreted tier, T11's winner) and
// by the ahead-of-time native tier — cold (generate + `go build`, the
// one-time price of a cache miss) and warm (the cached binary, process
// launch included).  The warm rows answer the tier's acceptance
// question: once a program is hot enough that the auto tier promoted
// it, how much does native execution return per iteration, and how
// many milliseconds does a repeat launch cost?
func expT12(c config) error {
	sharedN := 200000
	arrayN, sweeps := 4096, 50
	if c.quick {
		sharedN = 20000
		arrayN, sweeps = 1024, 10
	}
	type kernel struct {
		name  string
		src   string
		iters int
	}
	kernels := []kernel{
		{
			name: "shared-heavy",
			src: fmt.Sprintf(`Force SHEAVY of NP ident ME
Shared Real ACC
Shared Integer TICKS
Private Integer I
Private Real X
End Declarations
Presched DO I = 1, %d
  X = REAL(I) * 0.5
  ACC = ACC + X
  TICKS = TICKS + 1
End Presched DO
Barrier
End Barrier
Join
`, sharedN),
			iters: sharedN,
		},
		{
			name: "disjoint-writes",
			src: fmt.Sprintf(`Force DISJ of NP ident ME
Shared Real A(%d)
Private Integer I, S
End Declarations
Presched DO I = 1, %d
  A(I) = REAL(I)
End Presched DO
DO S = 1, %d
  Presched DO I = 1, %d
    A(I) = A(I) * 0.999 + REAL(I) * 0.001
  End Presched DO
End DO
Join
`, arrayN, arrayN, sweeps, arrayN),
			iters: arrayN * sweeps,
		},
	}
	cacheDir, err := os.MkdirTemp("", "force-aot-bench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(cacheDir)
	cache, err := aot.Open(cacheDir)
	if err != nil {
		return err
	}
	report := aotReport{Experiment: "aot-tier", GoMaxProcs: runtime.GOMAXPROCS(0), Runs: c.runs}
	perSec := map[string]map[int]float64{} // tier/kernel → np → iters/s
	for _, k := range kernels {
		prog, err := forcelang.Parse(k.src)
		if err != nil {
			return err
		}
		buildStart := time.Now()
		entry, err := cache.Ensure(prog, aot.Options{})
		if errors.Is(err, aot.ErrNoToolchain) {
			fmt.Println("go toolchain unavailable; skipping T12 (the aot tier would fall back to the interpreter)")
			return nil
		}
		if err != nil {
			return err
		}
		buildSec := time.Since(buildStart).Seconds()
		report.Results = append(report.Results, aotCell{
			Tier: "aot-build", Kernel: k.name, NP: 0, Iters: k.iters, SecondsMed: buildSec,
		})
		tbl := &stats.Table{
			Title:  fmt.Sprintf("aot tier, %s kernel (%d iterations): µs per iteration", k.name, k.iters),
			Header: append([]string{"tier"}, npHeaders(c.npSweep())...),
			Notes: []string{
				"chunked-interp = the chunk-compiled interpreter (T11's fastest engine), in-process",
				"aot-warm = the cached native binary, per-run process launch included",
				fmt.Sprintf("one-time cold build for this kernel: %.0f ms (amortized across every later run at every np)", buildSec*1e3),
			},
		}
		for _, tier := range []string{"chunked-interp", "aot-warm"} {
			key := tier + "/" + k.name
			perSec[key] = map[int]float64{}
			row := []any{tier}
			for _, np := range c.npSweep() {
				var runErr error
				var s *stats.Sample
				if tier == "chunked-interp" {
					cfg := interp.Config{NP: np, Stdout: io.Discard, Exec: interp.ExecChunked, Chunk: c.chunk}
					if c.barSet {
						cfg.Barrier = c.barKind
					}
					s = stats.Time(c.runs, func() {
						if err := interp.Run(prog, cfg); err != nil && runErr == nil {
							runErr = err
						}
					})
				} else {
					s = stats.Time(c.runs, func() {
						if err := entry.Run(np, io.Discard, 0); err != nil && runErr == nil {
							runErr = err
						}
					})
				}
				if runErr != nil {
					return runErr
				}
				med := s.Median()
				row = append(row, med/float64(k.iters)*1e6)
				perSec[key][np] = float64(k.iters) / med
				report.Results = append(report.Results, aotCell{
					Tier: tier, Kernel: k.name, NP: np, Iters: k.iters,
					SecondsMed: med, MicrosPer: med / float64(k.iters) * 1e6,
					ItersPerSec: float64(k.iters) / med,
				})
			}
			tbl.AddRow(row...)
		}
		if err := tbl.Render(os.Stdout); err != nil {
			return err
		}
	}
	// Warm launch cost: a trivial program through the cached binary.
	launchProg, err := forcelang.Parse("Force NOP of NP ident ME\nEnd Declarations\nJoin\n")
	if err != nil {
		return err
	}
	launchEntry, err := cache.Ensure(launchProg, aot.Options{})
	if err != nil {
		return err
	}
	launch := stats.Time(c.runs, func() {
		if err := launchEntry.Run(1, io.Discard, 0); err != nil {
			panic(err)
		}
	})
	report.LaunchMillis = launch.Median() * 1e3
	fmt.Printf("warm repeat launch (trivial program, np=1): %.1f ms median\n", report.LaunchMillis)
	// Acceptance summary: the tier must return ≥1.5x per-iteration over
	// the chunked interpreter at np=1 on both kernels.
	for _, k := range kernels {
		if ch, warm := perSec["chunked-interp/"+k.name][1], perSec["aot-warm/"+k.name][1]; ch > 0 {
			fmt.Printf("aot-warm vs chunked-interp, %s, np=1: %.2fx\n", k.name, warm/ch)
		}
	}
	if c.jsonPath != "" {
		blob, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(c.jsonPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d cells)\n", c.jsonPath, len(report.Results))
	}
	return nil
}

// cancelCell is one T13 measurement: the distribution of the
// cancellation latency — cancel() to Run returning — with every
// process of the force parked across its blocking primitives.
type cancelCell struct {
	Tier         string  `json:"tier"`
	NP           int     `json:"np"`
	Samples      int     `json:"samples"`
	MillisMin    float64 `json:"millis_min"`
	MillisMedian float64 `json:"millis_median"`
	MillisMax    float64 `json:"millis_max"`
}

// cancelReport is the top-level T13 JSON document (BENCH_cancel.json).
type cancelReport struct {
	Experiment string       `json:"experiment"`
	GoMaxProcs int          `json:"gomaxprocs"`
	Runs       int          `json:"runs"`
	Results    []cancelCell `json:"results"`
}

// expT13 is the cancellation-latency experiment: a non-conformant
// program parks every process of the force in the barrier (process 0
// never arrives), the run is canceled from outside, and the cell
// reports the distribution of cancel() → Run-returned.  The interpreter
// tiers measure the poison protocol's wake-and-unwind path; the aot
// tier measures the subprocess analogue — SIGKILL of the child's
// process group plus the reap.  The robustness acceptance bound is
// 100 ms at np=8 on the in-process tiers.
func expT13(c config) error {
	// The missing-peer barrier stall: process 0 never arrives, everyone
	// else parks in the barrier.  np starts at 2 — with one process the
	// program has no missing peer (and a pure channel stall would trip
	// the Go deadlock detector inside the aot child binary).
	const stallSrc = `Force STALL of NP ident ME
End Declarations
IF (ME .GT. 0) THEN
Barrier
End Barrier
END IF
Join
`
	prog, err := forcelang.Parse(stallSrc)
	if err != nil {
		return err
	}
	samples := c.runs * 3
	if samples < 5 {
		samples = 5
	}
	if c.quick {
		samples = 3
	}
	// settle gives the force time to reach the parked state before the
	// cancel, so the cell times the wake path, not the program prologue.
	const settle = 30 * time.Millisecond

	measure := func(start func(ctx context.Context) chan error) (cancelCell, error) {
		lat := make([]float64, 0, samples)
		for i := 0; i < samples; i++ {
			ctx, cancel := context.WithCancel(context.Background())
			errc := start(ctx)
			time.Sleep(settle)
			begin := time.Now()
			cancel()
			err := <-errc
			d := time.Since(begin)
			if err == nil || !errors.Is(err, context.Canceled) {
				return cancelCell{}, fmt.Errorf("canceled run returned %v, want context.Canceled", err)
			}
			lat = append(lat, d.Seconds()*1e3)
		}
		sort.Float64s(lat)
		return cancelCell{
			Samples:      len(lat),
			MillisMin:    lat[0],
			MillisMedian: lat[len(lat)/2],
			MillisMax:    lat[len(lat)-1],
		}, nil
	}

	report := cancelReport{Experiment: "cancel-latency", GoMaxProcs: runtime.GOMAXPROCS(0), Runs: samples}
	nps := []int{2, 8}
	tbl := &stats.Table{
		Title:  fmt.Sprintf("cancellation latency, cancel → Run returns, ms median (max), %d samples", samples),
		Header: append([]string{"tier"}, npHeaders(nps)...),
		Notes: []string{
			"program: non-conformant missing-peer stall — process 0 skips the barrier everyone else parks in (needs np >= 2)",
			"interpreter tiers: poison wake + unwind, in-process; aot: SIGKILL of the child's process group + reap",
			"acceptance bound: < 100 ms at np=8 on the in-process tiers",
		},
	}

	for _, mode := range []interp.ExecMode{interp.ExecTree, interp.ExecCompiled, interp.ExecChunked} {
		row := []any{mode.String()}
		for _, np := range nps {
			np := np
			cell, err := measure(func(ctx context.Context) chan error {
				errc := make(chan error, 1)
				cfg := interp.Config{NP: np, Stdout: io.Discard, Exec: mode, Context: ctx}
				if c.barSet {
					cfg.Barrier = c.barKind
				}
				go func() { errc <- interp.Run(prog, cfg) }()
				return errc
			})
			if err != nil {
				return fmt.Errorf("%s np=%d: %w", mode, np, err)
			}
			cell.Tier, cell.NP = mode.String(), np
			report.Results = append(report.Results, cell)
			row = append(row, fmt.Sprintf("%.1f (%.1f)", cell.MillisMedian, cell.MillisMax))
		}
		tbl.AddRow(row...)
	}

	// The native tier: one cached build, then cancel the running binary.
	aotRow := func() error {
		cacheDir, err := os.MkdirTemp("", "force-cancel-bench-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(cacheDir)
		cache, err := aot.Open(cacheDir)
		if err != nil {
			return err
		}
		entry, err := cache.Ensure(prog, aot.Options{})
		if errors.Is(err, aot.ErrNoToolchain) {
			fmt.Println("go toolchain unavailable; skipping the aot row")
			return nil
		}
		if err != nil {
			return err
		}
		row := []any{"aot"}
		for _, np := range nps {
			np := np
			cell, err := measure(func(ctx context.Context) chan error {
				errc := make(chan error, 1)
				go func() { errc <- entry.RunContext(ctx, np, io.Discard) }()
				return errc
			})
			if err != nil {
				return fmt.Errorf("aot np=%d: %w", np, err)
			}
			cell.Tier, cell.NP = "aot", np
			report.Results = append(report.Results, cell)
			row = append(row, fmt.Sprintf("%.1f (%.1f)", cell.MillisMedian, cell.MillisMax))
		}
		tbl.AddRow(row...)
		return nil
	}
	if err := aotRow(); err != nil {
		return err
	}

	if err := tbl.Render(os.Stdout); err != nil {
		return err
	}
	for _, cell := range report.Results {
		if cell.NP == 8 && cell.Tier != "aot" && cell.MillisMax > 100 {
			fmt.Printf("WARNING: %s np=8 max latency %.1f ms exceeds the 100 ms acceptance bound\n",
				cell.Tier, cell.MillisMax)
		}
	}
	if c.jsonPath != "" {
		blob, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(c.jsonPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d cells)\n", c.jsonPath, len(report.Results))
	}
	return nil
}

// fusionCell is one T14 measurement.  Config is "chunked-fused" (the
// chunk tier with the fusion pass), "chunked-nofuse" (the same tier
// with one barrier per construct) or "core-run" (the runtime's
// steady-state Run handoff, the zero-allocation contract).
type fusionCell struct {
	Config      string  `json:"config"`
	Kernel      string  `json:"kernel"`
	NP          int     `json:"np"`
	Regions     int     `json:"regions"` // fused-region executions per run (0 for core-run)
	SecondsMed  float64 `json:"seconds_median"`
	MicrosPer   float64 `json:"micros_per_region"`
	AllocsPerOp float64 `json:"allocs_per_op"` // heap allocations per Run
}

// fusionReport is the top-level T14 JSON document (BENCH_fusion.json).
type fusionReport struct {
	Experiment string       `json:"experiment"`
	GoMaxProcs int          `json:"gomaxprocs"`
	Runs       int          `json:"runs"`
	Results    []fusionCell `json:"results"`
}

// expT14 is the fused-pipeline experiment.  The barrier-heavy kernel
// repeats a region of four adjacent element-disjoint prescheduled
// DOALLs with a trailing GSUM: unfused, every round costs four exit
// barriers plus a reduction episode; fused, the whole region closes
// with one join.  The loop bodies are deliberately small (64 elements)
// so synchronization — the thing fusion removes — dominates.  The
// core-run rows measure the runtime's steady-state Run handoff on an
// already-created force: its allocs/op column must be 0, the
// zero-allocation contract the interpreter's pools build on.
func expT14(c config) error {
	rounds, n := 4000, 8
	if c.quick {
		rounds = 300
	}
	src := fmt.Sprintf(`Force FUSEB of NP ident ME
Shared Real A(%[1]d)
Shared Real B(%[1]d)
Shared Real C(%[1]d)
Shared Real D(%[1]d)
Shared Integer S
Private Integer I, R
End Declarations
DO R = 1, %[2]d
  Presched DO I = 1, %[1]d
    A(I) = REAL(I) + REAL(R)
  End Presched DO
  Presched DO I = 1, %[1]d
    B(I) = A(I) * 0.5
  End Presched DO
  Presched DO I = 1, %[1]d
    C(I) = A(I) + B(I)
  End Presched DO
  Presched DO I = 1, %[1]d
    D(I) = C(I) - B(I)
  End Presched DO
  GSUM S = I
End DO
Join
`, n, rounds)
	prog, err := forcelang.Parse(src)
	if err != nil {
		return err
	}
	report := fusionReport{Experiment: "fusion", GoMaxProcs: runtime.GOMAXPROCS(0), Runs: c.runs}
	perNP := map[string]map[int]float64{} // config → np → seconds
	tbl := &stats.Table{
		Title:  fmt.Sprintf("fused construct pipeline: µs per region (4 DOALLs over %d elements + GSUM, %d rounds)", n, rounds),
		Header: append([]string{"config"}, npHeaders(c.npSweep())...),
		Notes: []string{
			"chunked-nofuse = one exit barrier per DOALL plus a reduction episode per round",
			"chunked-fused = the same region as four barrier-free opens and one closing join",
		},
	}
	atbl := &stats.Table{
		Title:  "heap allocations per op (allocs/op)",
		Header: append([]string{"config"}, npHeaders(c.npSweep())...),
		Notes:  []string{"chunked rows are per Run (compile included); core-run is per steady-state Force.Run on a reused force — 0 is the contract"},
	}
	for _, v := range []struct {
		name   string
		noFuse bool
	}{{"chunked-nofuse", true}, {"chunked-fused", false}} {
		perNP[v.name] = map[int]float64{}
		row := []any{v.name}
		arow := []any{v.name}
		for _, np := range c.npSweep() {
			cfg := interp.Config{NP: np, Stdout: io.Discard, NoFuse: v.noFuse, Chunk: c.chunk}
			if c.barSet {
				cfg.Barrier = c.barKind
			}
			var runErr error
			times, allocs := stats.TimeAllocs(c.runs, func() {
				if err := interp.Run(prog, cfg); err != nil && runErr == nil {
					runErr = err
				}
			})
			if runErr != nil {
				return runErr
			}
			med := times.Median()
			perNP[v.name][np] = med
			row = append(row, med/float64(rounds)*1e6)
			arow = append(arow, allocs.Median())
			report.Results = append(report.Results, fusionCell{
				Config: v.name, Kernel: "barrier-heavy", NP: np, Regions: rounds,
				SecondsMed: med, MicrosPer: med / float64(rounds) * 1e6,
				AllocsPerOp: allocs.Median(),
			})
		}
		tbl.AddRow(row...)
		atbl.AddRow(arow...)
	}
	arow := []any{"core-run"}
	for _, np := range c.npSweep() {
		f := c.force(np)
		times, allocs := stats.TimeAllocs(c.runs, func() {
			f.Run(func(p *core.Proc) {})
		})
		f.Close()
		arow = append(arow, allocs.Median())
		report.Results = append(report.Results, fusionCell{
			Config: "core-run", Kernel: "empty", NP: np,
			SecondsMed: times.Median(), AllocsPerOp: allocs.Median(),
		})
	}
	atbl.AddRow(arow...)
	if err := tbl.Render(os.Stdout); err != nil {
		return err
	}
	if err := atbl.Render(os.Stdout); err != nil {
		return err
	}
	// Acceptance summary: the fusion speedup on the barrier-heavy kernel
	// at np=1 (the bound the chunk tier's A/B gate tracks) and the
	// runtime's steady-state allocation count.
	if fused, unfused := perNP["chunked-fused"][1], perNP["chunked-nofuse"][1]; fused > 0 {
		fmt.Printf("fused vs unfused, barrier-heavy, np=1: %.2fx\n", unfused/fused)
	}
	for _, cell := range report.Results {
		if cell.Config == "core-run" && cell.AllocsPerOp != 0 {
			fmt.Printf("WARNING: core-run np=%d allocates %.0f/op — the steady state must be allocation-free\n",
				cell.NP, cell.AllocsPerOp)
		}
	}
	if c.jsonPath != "" {
		blob, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(c.jsonPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d cells)\n", c.jsonPath, len(report.Results))
	}
	return nil
}
