package main

// probes.go — runtime primitive costs, each a loop over core's public
// API on a live force.  They multiply the construct counts of a run
// into the synchronization estimate, and they are what a change to one
// primitive should move first.

import (
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/reduce"
	"repro/internal/sched"
)

const (
	probeTarget = 20 * time.Millisecond // wall time of one timed probe loop
	probeReps   = 5
	askforDepth = 6 // each Askfor construct of the probe runs 2^7-1 tasks
)

// primitive is one probe: per returns the loop body for a force (after
// any per-force set-up), units the number of operations n iterations
// make at np.
type primitive struct {
	name  string
	per   func(f *core.Force) func(p *core.Proc, n int)
	units func(np, n int) int
}

func perIter(_, n int) int { return n }

var emptySpan = func(lo, hi, stride int) {}

var primitives = []primitive{
	{"barrier.episode_ns", func(*core.Force) func(*core.Proc, int) {
		return func(p *core.Proc, n int) {
			for i := 0; i < n; i++ {
				p.Barrier()
			}
		}
	}, perIter},
	{"reduce.gsum_ns", func(*core.Force) func(*core.Proc, int) {
		return func(p *core.Proc, n int) {
			for i := 0; i < n; i++ {
				core.Gsum(p, 1.0)
			}
		}
	}, perIter},
	// One empty Selfsched DOALL: span handoff plus exit barrier.
	{"core.doall_ns", func(*core.Force) func(*core.Proc, int) {
		return func(p *core.Proc, n int) {
			for i := 0; i < n; i++ {
				p.DoAllChunked(sched.SelfLock, sched.Seq(16), emptySpan)
			}
		}
	}, perIter},
	// The fused shape: spans without the exit barrier, closed by the
	// join that also carries a reduction.
	{"core.fused_join_ns", func(*core.Force) func(*core.Proc, int) {
		return func(p *core.Proc, n int) {
			for i := 0; i < n; i++ {
				p.DoAllChunkedOpen(sched.SelfLock, sched.Seq(16), emptySpan)
				p.FusedJoin(reduce.Max, reduce.NumReal, 0)
			}
		}
	}, perIter},
	{"engine.askfor_task_ns", func(*core.Force) func(*core.Proc, int) {
		return func(p *core.Proc, n int) {
			for i := 0; i < n; i++ {
				p.Askfor([]any{askforDepth}, func(task any, put func(any)) {
					if d := task.(int); d > 0 {
						put(d - 1)
						put(d - 1)
					}
				})
			}
		}
	}, func(_, n int) int { return n * (1<<(askforDepth+1) - 1) }},
	// Ping-pong between processes 0 and 1 (a self handoff at np=1): one
	// unit is one Produce→Consume transfer.
	{"asyncvar.handoff_ns", func(f *core.Force) func(*core.Proc, int) {
		a, b := core.NewAsync[int](f), core.NewAsync[int](f)
		return func(p *core.Proc, n int) {
			switch {
			case p.NP() == 1:
				for i := 0; i < n; i++ {
					a.Produce(i)
					a.Consume()
				}
			case p.ID() == 0:
				for i := 0; i < n; i++ {
					a.Produce(i)
					b.Consume()
				}
			case p.ID() == 1:
				for i := 0; i < n; i++ {
					b.Produce(a.Consume())
				}
			}
		}
	}, func(np, n int) int {
		if np == 1 {
			return n
		}
		return 2 * n
	}},
}

// measure returns the median cost in ns of one operation of pr at np.
func (pr primitive) measure(np int) float64 {
	f := core.New(np)
	defer f.Close()
	body := pr.per(f)
	timeLoop := func(n int) time.Duration {
		start := time.Now()
		f.Run(func(p *core.Proc) { body(p, n) })
		return time.Since(start)
	}
	n := calibrate(timeLoop)
	costs := make([]float64, probeReps)
	for i := range costs {
		costs[i] = float64(timeLoop(n).Nanoseconds()) / float64(pr.units(np, n))
	}
	return median(costs)
}

// calibrate picks a loop count whose timed loop takes about probeTarget.
func calibrate(timeLoop func(n int) time.Duration) int {
	n := 1
	for {
		d := timeLoop(n)
		if d >= probeTarget/8 || n >= 1<<24 {
			scaled := int(float64(n) * float64(probeTarget) / float64(max(d, time.Microsecond)))
			return max(1, min(scaled, 1<<24))
		}
		n *= 4
	}
}

// probeRun times an empty Run on a live force of np processes and
// counts its heap allocations (zero since the fused-pipeline work).
func probeRun(np int) (ns, allocs float64) {
	f := core.New(np)
	defer f.Close()
	empty := func(*core.Proc) {}
	timeLoop := func(n int) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			f.Run(empty)
		}
		return time.Since(start)
	}
	n := calibrate(timeLoop)
	costs := make([]float64, probeReps)
	for i := range costs {
		costs[i] = float64(timeLoop(n).Nanoseconds()) / float64(n)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	timeLoop(n)
	runtime.ReadMemStats(&m1)
	return median(costs), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// probeNew times creating and closing a force of np processes.
func probeNew(np int) float64 {
	costs := make([]float64, 21)
	for i := range costs {
		start := time.Now()
		core.New(np).Close()
		costs[i] = time.Since(start).Seconds()
	}
	return median(costs)
}
