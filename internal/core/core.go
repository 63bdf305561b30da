// Package core implements the Force runtime: the paper's global-parallelism
// execution model in which a fixed force of NP processes executes one SPMD
// program, with work distributed by constructs rather than assigned to
// named processes (paper §3).
//
// The package provides every Force language concept:
//
//   - program structure: New/Run (the generated Force driver: create the
//     force, run the program in every process, Join at the end) and
//     parallel subroutines (any Go function taking a *Proc);
//   - variable classes: shared variables are whatever the program shares
//     through closures (the Go analogue of Force shared declarations),
//     private variables are locals of the process body, and asynchronous
//     variables come from the machine profile via NewAsync;
//   - work distribution: prescheduled and selfscheduled DOALL loops over
//     Fortran-style ranges, singly and doubly nested; prescheduled and
//     selfscheduled Pcase with optional per-block conditions; Askfor work
//     pools with run-time work generation; Resolve (the paper's "yet
//     unimplemented concept", built here as scoped sub-forces);
//   - synchronization: barriers with single-process barrier sections,
//     named critical sections, and produce/consume on async variables;
//   - global reductions: Gsum/Gprod/Gmax/Gmin/Gand/Gor and the generic
//     Reduce/ReduceSection, executed by a selectable strategy
//     (WithReduce) — the first-class replacement for the hand-rolled
//     critical-section reductions of the paper's programs.
//
// Every construct is generic in the paper's sense — no process identifiers
// appear in synchronization operations — and programs are written to be
// independent of the number of processes, which is fixed only when the
// force is created.
//
// # Architecture
//
// core sits in the middle of the runtime stack:
//
//	forcelang  →  interp / codegen      (front end: interpret or compile)
//	                 │
//	                 ▼
//	               core                 (Force/Proc: the paper's constructs)
//	                 │
//	      ┌──────────┼──────────┬────────────┐
//	      ▼          ▼          ▼            ▼
//	   engine      sched      reduce     barrier / lock / machine
//	 (persistent (loop dis-  (global     (synchronization and the
//	  workers,    ciplines;   reduction   machine-dependent layer)
//	  deques,     Stealing is strategies)
//	  pools)      engine-backed)
//
// A Force owns a persistent engine.Engine: NP worker goroutines started
// at New (each paying the machine's creation cost exactly once) that
// survive across Run invocations, the paper's create-force-then-reuse
// driver taken literally.  Work distribution is unified by the
// engine.WorkSource interface: Askfor draws from an engine.Pool
// (work-stealing deques by default, the [LO83] central monitor as the
// ablation baseline), selfscheduled Pcase and DOALL loops draw from
// sched schedulers, among them the engine-backed Stealing discipline —
// so all three of the paper's generic constructs can be served by one
// distribution substrate.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/asyncvar"
	"repro/internal/barrier"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/lock"
	"repro/internal/machine"
	"repro/internal/poison"
	"repro/internal/reduce"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Force is a force of NP processes together with the shared parallel
// environment the preprocessor would have generated: the global barrier,
// the named lock set, and the per-construct scheduler table.
type Force struct {
	np        int
	profile   machine.Profile
	barKind   barrier.Kind
	bar       barrier.Barrier
	locks     *lock.Set
	chunk     int             // chunk size for chunked selfscheduling
	tr        *trace.Recorder // nil unless WithTrace was given
	askfor    engine.PoolKind // Askfor pool discipline
	pcaseKind sched.Kind      // SelfschedPcase block distribution
	reduceK   reduce.Kind     // global-reduction strategy

	eng *engine.Engine // persistent workers; nil on scoped sub-forces

	pc    *poison.Cell // fault-containment cell; shared with sub-forces
	sites []procSite   // per-pid blocked-construct state for the stall watchdog

	// gate tracks the in-flight Run so Shutdown can drain gracefully.
	// It replaces a per-Run completion channel: the waiter channel is
	// created lazily, only when a Shutdown actually waits, so the
	// steady-state Run path allocates nothing for it.
	gate runGate

	// fusedEps are the reusable joins closing fused DOALL+reduction
	// constructs (FusedJoin).  Two alternate per process: a process can
	// only reach its (k+2)-th fused join after every process has left
	// its k-th, the sense-reversal invariant that makes a pair safe to
	// reuse forever.  Rebuilt by recoverAborted like the barrier.
	fusedEps [2]*reduce.NumEpisode

	// procs and runBody are the preallocated per-Run dispatch state:
	// one Proc per process reset (not reallocated) each Run, and one
	// stable body closure reading curProgram — so a steady-state Run
	// performs zero heap allocations.
	procs      []Proc
	runBody    func(id int)
	curProgram func(p *Proc)

	entries sync.Map // construct seq (uint64) -> *constructEntry
	stats   Stats
}

// runGate tracks whether a Run is in flight and lets Shutdown wait for
// it.  The channel exists only while someone is actually waiting.
type runGate struct {
	mu      sync.Mutex
	running bool
	waitCh  chan struct{}
}

func (g *runGate) start() {
	g.mu.Lock()
	g.running = true
	g.mu.Unlock()
}

func (g *runGate) finish() {
	g.mu.Lock()
	g.running = false
	if g.waitCh != nil {
		close(g.waitCh)
		g.waitCh = nil
	}
	g.mu.Unlock()
}

// waiter returns a channel closed when the in-flight Run finishes, or
// nil when no Run is in flight.
func (g *runGate) waiter() chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.running {
		return nil
	}
	if g.waitCh == nil {
		g.waitCh = make(chan struct{})
	}
	return g.waitCh
}

// procSite records where one process currently blocks: the construct
// name (set by the core construct methods) and an optional front-end
// note ("Barrier, line 12", set by interpreters via Proc.Note).  Read
// by Force.Blocked for the stall watchdog.  A Proc addresses its slot
// through a direct pointer, so sub-force Procs (Resolve components)
// report into the parent process's slot and remain visible to the
// top-level watchdog.  Sized to a whole cache line so neighbouring
// processes' site stores do not false-share.
type procSite struct {
	construct atomic.Pointer[string]
	note      atomic.Pointer[string]
	_         [48]byte
}

// Stats counts construct executions; all fields are updated atomically and
// may be read at any time.
type Stats struct {
	Barriers    atomic.Int64
	Loops       atomic.Int64
	Criticals   atomic.Int64
	PcaseBlocks atomic.Int64
	AskforTasks atomic.Int64
	Reductions  atomic.Int64
}

// Option configures a Force.
type Option func(*Force)

// WithMachine selects the machine profile supplying locks, async-variable
// realization and creation cost.  Default: machine.Native.
func WithMachine(p machine.Profile) Option {
	return func(f *Force) { f.profile = p }
}

// WithBarrier selects the global barrier algorithm.  Default: the paper's
// two-lock barrier.
func WithBarrier(k barrier.Kind) Option {
	return func(f *Force) { f.barKind = k }
}

// WithChunk sets the chunk size used by chunked selfscheduled loops.
func WithChunk(n int) Option {
	return func(f *Force) { f.chunk = n }
}

// WithTrace attaches an execution-trace recorder; every construct edge
// (barrier enter/leave, section and critical boundaries, loop iterations,
// Pcase blocks, Askfor tasks) is recorded for post-run validation.
func WithTrace(r *trace.Recorder) Option {
	return func(f *Force) { f.tr = r }
}

// WithAskfor selects the Askfor pool discipline.  Default: the engine's
// work-stealing deques; engine.MonitorPool restores the [LO83]-style
// central monitor for comparison.
func WithAskfor(k engine.PoolKind) Option {
	return func(f *Force) { f.askfor = k }
}

// WithReduce selects the strategy executing global reductions (the G*
// operations and Reduce).  Default: reduce.PrivateSlots, the padded
// per-process accumulators combined in pid order; reduce.Critical
// restores the paper's shared-accumulator-in-a-critical-section idiom
// for comparison.
func WithReduce(k reduce.Kind) Option {
	return func(f *Force) { f.reduceK = k }
}

// WithPcaseSched selects the distribution discipline of SelfschedPcase
// over the block ordinals.  Default: the paper's lock-based
// selfscheduling; sched.Stealing draws the blocks from the engine's
// deques instead.
func WithPcaseSched(k sched.Kind) Option {
	return func(f *Force) { f.pcaseKind = k }
}

// Trace returns the attached recorder (nil when tracing is off).
func (f *Force) Trace() *trace.Recorder { return f.tr }

// New creates a force of np processes: NP persistent worker goroutines
// are started immediately, each paying the machine's creation cost once
// (§4.1.1) — the paper's create-the-force step.  The force is reusable:
// Run may be called repeatedly (sequentially) with different programs,
// and repeated Runs cost a handoff to the existing workers, not a
// re-creation.  Close releases the workers; an abandoned Force is also
// cleaned up by the garbage collector.
func New(np int, opts ...Option) *Force {
	if np <= 0 {
		panic(fmt.Sprintf("core: np = %d, need np >= 1", np))
	}
	f := &Force{np: np, profile: machine.Native, barKind: barrier.TwoLock, pcaseKind: sched.SelfLock}
	for _, o := range opts {
		o(f)
	}
	f.pc = poison.NewCell()
	f.sites = make([]procSite, np)
	f.bar = barrier.New(f.barKind, np, f.profile.LockFactory())
	barrier.SetPoison(f.bar, f.pc)
	f.locks = lock.NewSet(f.profile.LockFactory())
	f.initFusedEps()
	// Capture the profile by value: the start hook must not reference f,
	// or the workers would keep an abandoned force alive forever.
	prof := f.profile
	f.eng = engine.New(np, engine.WithWorkerStart(func(int) { prof.PayCreationCost() }))
	f.procs = make([]Proc, np)
	f.runBody = func(id int) {
		f.sites[id].construct.Store(nil)
		f.sites[id].note.Store(nil)
		p := &f.procs[id]
		drops := p.pendingDrops[:0]
		*p = Proc{id: id, f: f, site: &f.sites[id], pendingDrops: drops}
		f.curProgram(p)
		// Reached only on normal return: a panicking process keeps its
		// last blocked site for post-mortem inspection.  The sticky
		// note clears too — a finished process has no "current" line.
		f.sites[id].note.Store(nil)
		f.sites[id].construct.Store(&siteExited)
	}
	return f
}

func (f *Force) initFusedEps() {
	f.fusedEps[0] = reduce.NewNumEpisode(f.np, f.pc)
	f.fusedEps[1] = reduce.NewNumEpisode(f.np, f.pc)
}

// Close stops the force's persistent workers.  Idempotent; the force must
// not be Run again afterwards.
func (f *Force) Close() {
	if f.eng != nil {
		f.eng.Close()
	}
}

// NP returns the number of processes in the force.
func (f *Force) NP() int { return f.np }

// NewAsync creates an asynchronous (full/empty) variable realized with the
// force's machine profile: an atomic full/empty word on the HEP and the
// native profile (waiters spin briefly while the force is not
// oversubscribed, then park until the releasing operation wakes them),
// the two-lock scheme elsewhere.  (A free function because Go methods
// cannot introduce type parameters.)  The variable observes the force's
// poison cell: a Produce/Consume blocked when the force aborts unwinds
// instead of waiting for a transfer that can never happen.  On machine
// profiles whose realization parks waiters on a condition variable (the
// condvar impl) the binding holds a subscription on the cell for the
// variable's — i.e. the force's — lifetime, so allocate such variables
// per force, not per Run (or unbind retired ones with
// asyncvar.SetPoison(v, nil)).
func NewAsync[T any](f *Force) asyncvar.V[T] {
	v := machine.NewAsync[T](f.profile)
	asyncvar.SetPoison(v, f.pc)
	return v
}

// NewAsyncArray creates an array of n asynchronous cells realized with the
// force's machine profile — the HEP's per-cell full/empty idiom.  On
// two-lock machines each cell costs a lock pair, the paper's "locks may
// be scarce resources" caveat.  Like NewAsync, the cells observe the
// force's poison cell.
func NewAsyncArray[T any](f *Force, n int) *asyncvar.Array[T] {
	a := asyncvar.NewArray[T](f.profile.Async, f.profile.LockFactory(), n)
	a.SetPoison(f.pc)
	return a
}

// Fault returns the force's fault-containment cell.  Front ends use it
// to bind their own blocking state to the force (interp binds the
// asynchronous variables it allocates), and watchdogs use it to abort a
// stalled force from outside: poisoning the cell wakes every process
// blocked in a force construct, and the in-flight Run panics with the
// poison value.
func (f *Force) Fault() *poison.Cell { return f.pc }

// Blocked reports, for each process, where it currently blocks: the
// core construct name plus the front end's location note when one was
// recorded.  Meaningful while a Run is stalled (the stall watchdog's
// view); a process not inside a blocking construct reports what it last
// recorded.
func (f *Force) Blocked() []string {
	out := make([]string, f.np)
	for i := range out {
		c := f.sites[i].construct.Load()
		n := f.sites[i].note.Load()
		switch {
		case c != nil && n != nil:
			out[i] = *c + " (" + *n + ")"
		case c != nil:
			out[i] = *c
		case n != nil:
			out[i] = "running; last synchronization site: " + *n
		default:
			out[i] = "running (no synchronization site recorded)"
		}
	}
	return out
}

// AllExited reports whether every process has returned from the
// current (or last) Run's program.  Stall watchdogs consult it before
// declaring a stall: when it holds, the Run is already completing and
// poisoning it would smear a successful run with a spurious abort.
func (f *Force) AllExited() bool {
	for i := range f.sites {
		if f.sites[i].construct.Load() != &siteExited {
			return false
		}
	}
	return true
}

// Construct-site labels for Blocked; static so enter/leave stores never
// allocate.
var (
	siteBarrier  = "Barrier"
	siteLoop     = "DOALL"
	sitePcase    = "Pcase"
	siteAskfor   = "Askfor"
	siteReduce   = "global reduction"
	siteResolve  = "Resolve"
	siteCritical = "Critical"
	siteExited   = "finished the program"
)

// AsyncSiteLabel is the construct label front ends pass to WithSite
// around asynchronous-variable statements, which block outside any
// core construct method.
var AsyncSiteLabel = "async variable"

// WithSite runs op with label recorded as the process's blocked site
// (shown by Blocked), for front-end operations that block outside the
// core constructs.  label must point to a long-lived string.  The
// label is retained when op unwinds, for post-mortem reports.
func (p *Proc) WithSite(label *string, op func()) {
	p.enterSite(label)
	op()
	p.leaveSite()
}

func (p *Proc) enterSite(s *string) { p.site.construct.Store(s) }
func (p *Proc) leaveSite()          { p.site.construct.Store(nil) }

// Note records a front-end location note ("Barrier, line 12") shown by
// Blocked next to the construct name.  Interpreters call it before each
// potentially blocking statement; nil clears.  The note is sticky until
// the next Note.
func (p *Proc) Note(s *string) { p.site.note.Store(s) }

// Check unwinds the process (with the runtime's distinguished abort
// panic) when the force has been poisoned.  Every force construct
// checks on entry; long computational stretches between constructs —
// an interpreter's WHILE loop, a long library computation — may call
// it so an externally aborted force does not have to wait them out.
// The cost is one atomic load.
func (p *Proc) Check() { p.f.pc.Check() }

// Machine returns the machine profile the force runs under.
func (f *Force) Machine() machine.Profile { return f.profile }

// Stats returns the construct counters.
func (f *Force) Stats() *Stats { return &f.stats }

// Run executes program as a Force main program: every process of the
// persistent force runs program with its private *Proc, and Run returns
// when all have — the Join statement of the paper, executed by the
// generated driver.  The creation cost was paid when the force was
// created (§4.1.1: fork models pay more than create-call); Run itself is
// a handoff to the already-running workers.
//
// Failures are contained by the poison protocol: when any process
// panics, the engine records the panic in the force's poison cell,
// which wakes every peer blocked in a force construct (barriers,
// reductions, asynchronous variables, Askfor pools); the peers unwind,
// and after all processes have stopped Run re-panics with the *first*
// failure.  The 1989 machines had no such protocol — an aborted process
// left its peers blocked in the next barrier forever — but a runtime
// meant to run unattended cannot afford that.  After an aborted Run the
// force's per-run construct state (barrier, named locks, construct
// table) is rebuilt, so the persistent force remains reusable: the next
// Run starts clean.  Run must not be invoked concurrently on the same
// force.
//
// Run is the no-deadline entry point: it delegates to RunContext with
// context.Background().  Because a background context never cancels,
// any error from RunContext here comes from an out-of-band external
// poisoning (a stall watchdog via Fault), and Run re-panics it to keep
// its historical panic-on-abort signature.
func (f *Force) Run(program func(p *Proc)) {
	if err := f.RunContext(context.Background(), program); err != nil {
		panic(err)
	}
}

// RunContext executes program like Run, under an external cancellation
// context.  When ctx is canceled or its deadline passes, the force is
// poisoned with an *external* cause (poison.CauseExternal): every
// process blocked in a force construct — any of the seven barrier
// kinds, a reduce episode, an asynchronous variable, an Askfor pool or
// engine park, a chunked-tier iteration boundary — wakes within one
// park interval and unwinds, the persistent force is rebuilt exactly
// as after an internal abort (the force remains reusable), and
// RunContext returns ctx.Err().  Internal failures keep Run's
// contract: the first failing process's panic value is re-panicked
// after all processes have stopped.
//
// The asymmetry is deliberate: a peer's panic is a program bug the
// caller did not ask for (a panic), while a deadline is an outcome the
// caller explicitly requested (an error return) — the service-shaped
// cancellation contract of context-aware Go APIs.
func (f *Force) RunContext(ctx context.Context, program func(p *Proc)) error {
	if f.eng == nil {
		// Only scoped sub-forces lack workers, and their processes are
		// the parent's workers re-scoped — Resolve hands them Procs
		// directly and never calls Run.
		panic("core: Run on a scoped sub-force")
	}
	// A cell poisoned before the Run starts is a pre-Run abort request
	// (an external watchdog via Fault): honor it rather than silently
	// erasing it.  An *aborted* Run never leaves leftover poison — it
	// is consumed by recoverAborted below.
	if f.pc.Poisoned() {
		return f.settleAborted()
	}
	// A context dead on arrival never starts the force at all.
	if err := ctx.Err(); err != nil {
		return err
	}

	// Register the in-flight run so Shutdown can drain gracefully.
	f.gate.start()
	defer f.gate.finish()

	// The cancellation watcher: one goroutine selecting the context
	// against run completion.  Armed only when the context can actually
	// cancel, so Run's Background() path pays nothing — not even the
	// stop channel or the watcher's WaitGroup (which escapes into the
	// goroutine closure and would otherwise heap-allocate every Run).
	var watcher *sync.WaitGroup
	var stop chan struct{}
	if ctx.Done() != nil {
		stop = make(chan struct{})
		watcher = new(sync.WaitGroup)
		watcher.Add(1)
		go func() {
			defer watcher.Done()
			select {
			case <-ctx.Done():
				f.pc.PoisonExternal(ctx.Err())
			case <-stop:
			}
		}()
	}

	f.curProgram = program
	f.pc.SetSpin(f.np <= runtime.GOMAXPROCS(0))
	f.eng.RunCell(f.pc, f.runBody)
	f.curProgram = nil // do not pin the program until the next Run
	if stop != nil {
		close(stop)
		watcher.Wait() // no PoisonExternal can race past this point
	}

	if f.pc.Poisoned() {
		return f.settleAborted()
	}
	return nil
}

// settleAborted consumes the cell's poison after every process has
// stopped: the per-run state is rebuilt for the next Run, an external
// cancellation is returned as an error, and an internal failure is
// re-panicked (Run's contract).
func (f *Force) settleAborted() error {
	v, cause := f.pc.Value(), f.pc.Cause()
	f.recoverAborted()
	if cause == poison.CauseExternal {
		return poison.AsError(v)
	}
	panic(v)
}

// Shutdown closes the force gracefully: an in-flight Run is drained
// until ctx expires, at which point it is canceled (poisoned with the
// external cause, exactly as RunContext would) and awaited; the
// workers are then released.  Returns nil when the drain completed
// without canceling, ctx.Err() when the in-flight run had to be
// canceled.  Safe with no run in flight (it just Closes); the caller
// owns the ordering against *starting* Runs, as with Run/Run.
func (f *Force) Shutdown(ctx context.Context) error {
	var err error
	if done := f.gate.waiter(); done != nil {
		select {
		case <-done:
		case <-ctx.Done():
			err = ctx.Err()
			f.pc.PoisonExternal(err)
			<-done // cancellation latency is bounded; the drain completes
		}
	}
	f.Close()
	return err
}

// recoverAborted rebuilds the per-run construct state an aborted Run
// leaves in an unspecified condition — the barrier's relay may be
// mid-episode, named locks may be held by unwound processes, and the
// construct table may hold half-used entries — so that the persistent
// force can serve the next Run.  Called after every process has
// stopped.
func (f *Force) recoverAborted() {
	// Rearm the cell before the rebuild: the next Run must start with
	// an unpoisoned cell anyway, and resubscribing primitives (the cond
	// barrier) on a still-poisoned cell would fire their hooks once
	// immediately — harmless, but pointless work this ordering avoids.
	f.pc.Reset()
	barrier.SetPoison(f.bar, nil) // release the old barrier's subscription, if any
	f.bar = barrier.New(f.barKind, f.np, f.profile.LockFactory())
	barrier.SetPoison(f.bar, f.pc)
	f.locks = lock.NewSet(f.profile.LockFactory())
	// An aborted fused join may hold contributions that never folded;
	// rebuild the reusable pair like the barrier.
	f.initFusedEps()
	f.releaseEntries()
}

// releaseEntries retires every abandoned construct entry after an
// abort: Askfor pools still hold poison subscriptions (their exit
// barrier never completed), and a Resolve plan's sub-forces hold bound
// barriers and construct tables of their own.
func (f *Force) releaseEntries() {
	f.entries.Range(func(k, v any) bool {
		if e, ok := v.(*constructEntry); ok {
			switch st := e.state.(type) {
			case engine.Pool:
				st.Close()
			case *resolvePlan:
				for _, s := range st.sub {
					barrier.SetPoison(s.bar, nil)
					s.releaseEntries()
				}
			}
		}
		f.entries.Delete(k)
		return true
	})
}

// constructEntry is the shared state of one dynamic construct instance
// (one execution of a DOALL, Pcase or Askfor site).  All processes of the
// force reach the same construct sites in the same order — the SPMD
// discipline the Force assumes — so a per-process sequence number
// identifies the instance, and the first process to arrive materializes
// the shared state.
type constructEntry struct {
	once  sync.Once
	state any
}

func (f *Force) entry(seq uint64, build func() any) any {
	v, _ := f.entries.LoadOrStore(seq, &constructEntry{})
	e := v.(*constructEntry)
	e.once.Do(func() { e.state = build() })
	return e.state
}

func (f *Force) dropEntry(seq uint64) { f.entries.Delete(seq) }

// Proc is one process's private view of the force: its unique process
// identifier, and the private construct-sequence cursor.  A *Proc must be
// used only by the goroutine it was handed to.
type Proc struct {
	id   int
	f    *Force
	seq  uint64
	site *procSite // this process's watchdog slot on the TOP-LEVEL force

	// fuse counts fused joins executed by this process (selects which
	// of the force's two reusable episodes serves the next one);
	// pendingDrops carries the selfscheduled construct entries of every
	// open member of the current fused region to the FusedJoin that
	// retires them.  The backing array is reused across regions.
	fuse         uint64
	pendingDrops []uint64
}

// ID returns the process identifier, in [0, NP()).
func (p *Proc) ID() int { return p.id }

// NP returns the number of processes in the force.
func (p *Proc) NP() int { return p.f.np }

// Force returns the force this process belongs to.
func (p *Proc) Force() *Force { return p.f }

// nextSeq advances the private construct cursor.  Constructs executed in
// SPMD order yield identical sequences in every process.
func (p *Proc) nextSeq() uint64 {
	p.seq++
	return p.seq
}

// Barrier suspends the process until the whole force arrives (§3.4).
func (p *Proc) Barrier() {
	p.f.pc.Check()
	p.f.stats.Barriers.Add(1)
	p.f.tr.Record(p.id, trace.BarrierEnter, "", 0)
	faultinject.Fire(faultinject.BarrierEnter, p.id, p.f.pc)
	p.enterSite(&siteBarrier)
	p.f.bar.Sync(p.id, nil)
	p.leaveSite()
	faultinject.Fire(faultinject.BarrierExit, p.id, p.f.pc)
	p.f.tr.Record(p.id, trace.BarrierLeave, "", 0)
}

// BarrierSection is a barrier with a barrier section: all processes wait,
// exactly one arbitrary process executes section while the others remain
// suspended, and the force proceeds when it completes.
func (p *Proc) BarrierSection(section func()) {
	p.f.pc.Check()
	p.f.stats.Barriers.Add(1)
	p.f.tr.Record(p.id, trace.BarrierEnter, "", 0)
	if p.f.tr != nil && section != nil {
		inner := section
		section = func() {
			p.f.tr.Record(p.id, trace.SectionStart, "", 0)
			inner()
			p.f.tr.Record(p.id, trace.SectionEnd, "", 0)
		}
	}
	if section != nil && faultinject.Enabled() {
		inner := section
		section = func() {
			faultinject.Fire(faultinject.BarrierSection, p.id, p.f.pc)
			inner()
		}
	}
	faultinject.Fire(faultinject.BarrierEnter, p.id, p.f.pc)
	p.enterSite(&siteBarrier)
	p.f.bar.Sync(p.id, section)
	p.leaveSite()
	faultinject.Fire(faultinject.BarrierExit, p.id, p.f.pc)
	p.f.tr.Record(p.id, trace.BarrierLeave, "", 0)
}

// Critical executes body inside the named critical section: at most one
// process of the force runs inside any section with the same name at a
// time (§3.4).  Lock variables are created on first use with the
// machine's lock mechanism, the Force's define_lock/init_lock.
func (p *Proc) Critical(name string, body func()) {
	p.f.pc.Check()
	p.f.stats.Criticals.Add(1)
	// The site covers the lock acquisition — the phase that can stall
	// when the holder never releases; once inside, user code runs.
	p.enterSite(&siteCritical)
	p.f.locks.With(name, func() {
		p.leaveSite()
		p.f.tr.Record(p.id, trace.CriticalEnter, name, 0)
		body()
		p.f.tr.Record(p.id, trace.CriticalLeave, name, 0)
	})
}

// loop is the shared implementation of every DOALL variant: materialize
// the instance's scheduler, drive it, and close the construct with the
// paper's exit synchronization (no process leaves before all have arrived;
// the loop cannot be reentered before all have left).
func (p *Proc) loop(kind sched.Kind, r sched.Range, body func(i int)) {
	p.f.pc.Check()
	p.f.stats.Loops.Add(1)
	seq := p.nextSeq()
	cfg := sched.Config{ChunkSize: p.f.chunk, LockFactory: p.f.profile.LockFactory()}
	s := p.f.entry(seq, func() any { return sched.New(kind, p.f.np, r, cfg) }).(sched.Scheduler)
	p.f.tr.Record(p.id, trace.LoopStart, kind.String(), int64(seq))
	p.enterSite(&siteLoop)
	// DriveWith already checks poison once per scheduler span; keep the
	// per-index path equally lean by hoisting the trace plumbing out of
	// the hot loop — without a recorder the body is dispatched bare, and
	// with one the kind name (a map lookup) is computed once, not per
	// iteration.
	drive := func(_, i int) { body(i) }
	if p.f.tr != nil {
		ks := kind.String()
		drive = func(_, i int) {
			p.f.tr.Record(p.id, trace.LoopIter, ks, int64(i))
			body(i)
		}
	}
	sched.DriveWith(p.f.pc, s, p.id, r, drive)
	p.f.bar.Sync(p.id, func() { p.f.dropEntry(seq) })
	p.leaveSite()
	p.f.tr.Record(p.id, trace.LoopEnd, kind.String(), int64(seq))
}

// PreschedDo is the prescheduled DOALL: indices are dealt cyclically as a
// pure function of the process id — "completely machine independent, since
// only the number of executing processes is needed" (§4.2).
func (p *Proc) PreschedDo(r sched.Range, body func(i int)) {
	p.loop(sched.PreschedCyclic, r, body)
}

// PreschedBlockDo is the blocked prescheduled variant (contiguous index
// blocks per process).
func (p *Proc) PreschedBlockDo(r sched.Range, body func(i int)) {
	p.loop(sched.PreschedBlock, r, body)
}

// SelfschedDo is the selfscheduled DOALL of the paper's expansion listing:
// a shared loop index behind the machine's lock, advanced by processes
// looking for more work.
func (p *Proc) SelfschedDo(r sched.Range, body func(i int)) {
	p.loop(sched.SelfLock, r, body)
}

// SelfschedAtomicDo is the fetch-and-add ablation of the selfscheduled
// loop.
func (p *Proc) SelfschedAtomicDo(r sched.Range, body func(i int)) {
	p.loop(sched.SelfAtomic, r, body)
}

// ChunkDo is chunked selfscheduling (chunk size from WithChunk).
func (p *Proc) ChunkDo(r sched.Range, body func(i int)) {
	p.loop(sched.Chunk, r, body)
}

// GuidedDo is guided selfscheduling: chunks of remaining/NP, shrinking to
// single iterations.
func (p *Proc) GuidedDo(r sched.Range, body func(i int)) {
	p.loop(sched.Guided, r, body)
}

// StealingDo is the engine-backed DOALL: per-process deques seeded with
// contiguous blocks, split lazily, stolen on miss.  WithChunk sets the
// split grain (default n/(8·NP)).
func (p *Proc) StealingDo(r sched.Range, body func(i int)) {
	p.loop(sched.Stealing, r, body)
}

// DoAll runs the loop under an explicitly chosen discipline.
func (p *Proc) DoAll(kind sched.Kind, r sched.Range, body func(i int)) {
	p.loop(kind, r, body)
}

// DoAll2 runs a doubly nested loop under an explicitly chosen discipline,
// distributing index pairs.
func (p *Proc) DoAll2(kind sched.Kind, r1, r2 sched.Range, body func(i, j int)) {
	p.loop2(kind, r1, r2, body)
}

// ChunkBody executes a whole scheduler span in one call: the ordinals
// lo, lo+stride, lo+2*stride, ... below hi.  Selfscheduled disciplines
// always hand out dense spans (stride 1); the cyclic prescheduled deal
// is expressed as one strided span per process.
type ChunkBody func(lo, hi, stride int)

// DoAllChunked is the chunk-granular DOALL: scheduler spans are forwarded
// to the body WHOLE instead of being shredded into one-index dispatches.
// Poison is checked once per span before the chunk runs (long chunks
// should call Check periodically themselves to keep abort latency
// bounded), the watchdog site covers the construct, and the paper's exit
// synchronization closes it exactly as DoAll does.  No per-iteration
// LoopIter trace events are emitted — callers needing an iteration-level
// trace should use DoAll.
func (p *Proc) DoAllChunked(kind sched.Kind, r sched.Range, chunk ChunkBody) {
	p.f.pc.Check()
	p.f.stats.Loops.Add(1)
	seq := p.nextSeq()
	n := r.Count()
	p.f.tr.Record(p.id, trace.LoopStart, kind.String(), int64(seq))
	p.enterSite(&siteLoop)
	switch kind {
	case sched.PreschedCyclic:
		// Cyclic dealing is a pure function of the process id: ordinals
		// id, id+np, id+2np, ... — a single strided span, no shared
		// scheduler state needed.
		if p.id < n {
			chunk(p.id, n, p.f.np)
		}
		p.f.bar.Sync(p.id, nil)
	case sched.PreschedBlock:
		// One contiguous block per process, remainder spread one-per-
		// process over the first n%np processes (same partition as the
		// block scheduler).
		base, rem := n/p.f.np, n%p.f.np
		lo := p.id*base + min(p.id, rem)
		size := base
		if p.id < rem {
			size++
		}
		if size > 0 {
			chunk(lo, lo+size, 1)
		}
		p.f.bar.Sync(p.id, nil)
	default:
		cfg := sched.Config{ChunkSize: p.f.chunk, LockFactory: p.f.profile.LockFactory()}
		s := p.f.entry(seq, func() any { return sched.New(kind, p.f.np, r, cfg) }).(sched.Scheduler)
		for {
			p.f.pc.Check()
			lo, hi, ok := s.Next(p.id)
			if !ok {
				break
			}
			chunk(lo, hi, 1)
		}
		p.f.bar.Sync(p.id, func() { p.f.dropEntry(seq) })
	}
	p.leaveSite()
	p.f.tr.Record(p.id, trace.LoopEnd, kind.String(), int64(seq))
}

// DoAll2Chunked is the chunk-granular doubly nested DOALL: the two index
// spaces are flattened exactly as DoAll2 flattens them, and the body
// receives whole spans of flat ordinals (k maps to the index pair
// (r1.Index(k/r2.Count()), r2.Index(k%r2.Count()))).
func (p *Proc) DoAll2Chunked(kind sched.Kind, r1, r2 sched.Range, chunk ChunkBody) {
	p.DoAllChunked(kind, sched.Seq(r1.Count()*r2.Count()), chunk)
}

// loop2 flattens a doubly nested loop into one ordinal space so that index
// *pairs* are the unit of distribution, the paper's "doubly nested loops"
// (§3.3).
func (p *Proc) loop2(kind sched.Kind, r1, r2 sched.Range, body func(i, j int)) {
	n2 := r2.Count()
	flat := sched.Seq(r1.Count() * n2)
	p.loop(kind, flat, func(k int) {
		body(r1.Index(k/n2), r2.Index(k%n2))
	})
}

// PreschedDo2 distributes the index pairs of a doubly nested loop
// prescheduled.
func (p *Proc) PreschedDo2(r1, r2 sched.Range, body func(i, j int)) {
	p.loop2(sched.PreschedCyclic, r1, r2, body)
}

// SelfschedDo2 distributes the index pairs of a doubly nested loop
// selfscheduled.
func (p *Proc) SelfschedDo2(r1, r2 sched.Range, body func(i, j int)) {
	p.loop2(sched.SelfLock, r1, r2, body)
}

// Block is one Pcase section: an independent single-stream code block,
// optionally guarded by a condition.  A nil Cond means unconditional.
// Conditions are evaluated by the process that would execute the block —
// "any number of conditions may be true simultaneously" (§3.3).
type Block struct {
	Cond func() bool
	Body func()
}

// Case builds an unconditional block.
func Case(body func()) Block { return Block{Body: body} }

// CaseIf builds a conditional block.
func CaseIf(cond func() bool, body func()) Block { return Block{Cond: cond, Body: body} }

// Pcase distributes the blocks over the force prescheduled: block b goes
// to process b mod NP, "allocat[ing] the blocks sequentially to the
// processes and ... thus completely machine independent" (§4.2).  Each
// block executes at most once (exactly once when its condition holds); no
// execution order may be assumed.  The construct closes with the implicit
// exit barrier.
func (p *Proc) Pcase(blocks ...Block) {
	p.f.pc.Check()
	seq := p.nextSeq()
	for b := p.id; b < len(blocks); b += p.f.np {
		p.runBlock(blocks[b])
	}
	p.enterSite(&sitePcase)
	p.f.bar.Sync(p.id, func() { p.f.dropEntry(seq) })
	p.leaveSite()
}

// SelfschedPcase distributes the blocks over the force selfscheduled.
// With the default discipline a shared block counter behind the machine's
// lock deals them out — the paper's "asynchronous variable ... needed for
// work distribution" (§4.2); WithPcaseSched(sched.Stealing) draws the
// blocks from the engine's per-process deques instead, the same
// distribution layer Askfor and stealing DOALLs use.
func (p *Proc) SelfschedPcase(blocks ...Block) {
	p.f.pc.Check()
	seq := p.nextSeq()
	cfg := sched.Config{ChunkSize: 1, LockFactory: p.f.profile.LockFactory()}
	s := p.f.entry(seq, func() any {
		return sched.New(p.f.pcaseKind, p.f.np, sched.Seq(len(blocks)), cfg)
	}).(sched.Scheduler)
	for {
		p.f.pc.Check()
		lo, hi, ok := s.Next(p.id)
		if !ok {
			break
		}
		for b := lo; b < hi; b++ {
			p.runBlock(blocks[b])
		}
	}
	p.enterSite(&sitePcase)
	p.f.bar.Sync(p.id, func() { p.f.dropEntry(seq) })
	p.leaveSite()
}

func (p *Proc) runBlock(b Block) {
	if b.Body == nil {
		return
	}
	if b.Cond != nil && !b.Cond() {
		return
	}
	p.f.stats.PcaseBlocks.Add(1)
	p.f.tr.Record(p.id, trace.PcaseBlock, "", 0)
	b.Body()
}

// Askfor is the most general work-distribution construct (§3.3, citing
// [LO83]): "the degree of concurrency is not known at compile time.
// Rather the program can request during run time that a new concurrent
// instance of the code segment is executed."
//
// Every process of the force repeatedly draws a task from the shared pool
// and runs body(task, put); body may call put to request new concurrent
// task instances.  The first process to reach the construct seeds the pool
// from its seed argument, so SPMD callers must pass the same seed in every
// process.  The construct terminates when the pool is empty and no task is
// executing; all processes then proceed.
//
// The pool is an engine.Pool: by default per-process work-stealing deques
// (put is a lock-free local push, get a local pop with steal-half on
// miss), or the [LO83]-style central monitor under WithAskfor
// (engine.MonitorPool).  put must be called from the process executing
// body, which is the only caller the construct exposes it to.
func (p *Proc) Askfor(seed []any, body func(task any, put func(any))) {
	p.f.pc.Check()
	seq := p.nextSeq()
	pool := p.f.entry(seq, func() any {
		return engine.NewPool(p.f.askfor, p.f.np, seed, p.f.pc)
	}).(engine.Pool)

	put := func(t any) {
		faultinject.Fire(faultinject.AskforPut, p.id, p.f.pc)
		pool.Put(p.id, t)
	}
	p.enterSite(&siteAskfor)
	// Tasks are counted locally and published once per construct, so
	// the per-task path touches no counter every process shares.
	var tasks int64
	for {
		// Per-task poison check: the stealing pool's hand-slot fast
		// path hands back a put-then-take worker's own successor
		// without ever parking, so without this a worker could drain
		// an entire task chain after the force died.
		p.f.pc.Check()
		faultinject.Fire(faultinject.AskforTake, p.id, p.f.pc)
		task, ok := pool.Next(p.id)
		if !ok {
			break
		}
		tasks++
		p.f.tr.Record(p.id, trace.AskforTask, "", 0)
		body(task, put)
		pool.Done(p.id)
	}
	p.f.stats.AskforTasks.Add(tasks)
	// Close the construct; the pool object (and its poison
	// subscription) is retired by the last process through the exit
	// barrier.
	p.f.bar.Sync(p.id, func() { pool.Close(); p.f.dropEntry(seq) })
	p.leaveSite()
}

// Component is one parallel code section of a Resolve: a weight (relative
// share of the force) and a body executed by the component's sub-force.
type Component struct {
	Weight int
	Body   func(sp *Proc)
}

// Resolve partitions the force into subsets executing different parallel
// code sections concurrently — the concept the paper lists as "yet
// unimplemented" (§3.3); this implementation is the repository's
// extension, documented in DESIGN.md.
//
// Processes are divided among the components in proportion to their
// weights (every component receives at least one process when NP allows;
// otherwise trailing components are executed by the force sequentially in
// a second pass, preserving the all-components-execute guarantee).  Each
// component's body runs on a scoped sub-force: inside it, sp.ID() ranges
// over the component's processes, sp.NP() is the component's size, and
// barriers, loops and critical sections are private to the component.
// The construct closes with a full-force barrier.
func (p *Proc) Resolve(components ...Component) {
	p.f.pc.Check()
	seq := p.nextSeq()
	if len(components) == 0 {
		p.f.bar.Sync(p.id, func() { p.f.dropEntry(seq) })
		return
	}
	plan := p.f.entry(seq, func() any {
		return planResolve(p.f, components)
	}).(*resolvePlan)

	a := plan.assign[p.id]
	if a.component >= 0 {
		// The sub-force Proc keeps this process's watchdog slot, so a
		// stall inside the component is attributed to the right pid.
		sub := &Proc{id: a.rank, f: plan.sub[a.component], site: p.site}
		components[a.component].Body(sub)
	}
	// Components that received no processes run after an intermediate
	// full barrier, executed by the whole force as one sub-force each,
	// in order.
	if len(plan.leftover) > 0 {
		p.enterSite(&siteResolve)
		p.f.bar.Sync(p.id, nil)
		p.leaveSite()
		for _, ci := range plan.leftover {
			sub := &Proc{id: p.id, f: plan.sub[ci], site: p.site}
			components[ci].Body(sub)
		}
	}
	p.enterSite(&siteResolve)
	p.f.bar.Sync(p.id, func() {
		// Unbind the sub-forces' barriers from the poison cell so a
		// subscription-based barrier does not outlive the construct.
		for _, s := range plan.sub {
			barrier.SetPoison(s.bar, nil)
		}
		p.f.dropEntry(seq)
	})
	p.leaveSite()
}

type resolveAssign struct {
	component int // -1: unassigned (cannot happen after planning)
	rank      int
}

type resolvePlan struct {
	assign   []resolveAssign
	sub      []*Force
	leftover []int // components that received zero processes
}

// planResolve allocates processes to components by largest-remainder
// apportionment over the weights.
func planResolve(f *Force, components []Component) *resolvePlan {
	np, nc := f.np, len(components)
	weights := make([]int, nc)
	total := 0
	for i, c := range components {
		w := c.Weight
		if w <= 0 {
			w = 1
		}
		weights[i] = w
		total += w
	}
	counts := make([]int, nc)
	assigned := 0
	type rem struct{ idx, num int }
	rems := make([]rem, nc)
	for i, w := range weights {
		counts[i] = np * w / total
		rems[i] = rem{i, np * w % total}
		assigned += counts[i]
	}
	// Distribute the remainder to the largest fractional parts, stable
	// by index for determinism.
	for assigned < np {
		best := -1
		for j := range rems {
			if best == -1 || rems[j].num > rems[best].num {
				best = j
			}
		}
		counts[rems[best].idx]++
		rems[best].num = -1
		assigned++
	}
	// Guarantee progress for every component while NP allows: steal one
	// process from the largest allocation for each empty component.
	for i := 0; i < nc; i++ {
		if counts[i] > 0 {
			continue
		}
		big, bigCount := -1, 1
		for j := 0; j < nc; j++ {
			if counts[j] > bigCount {
				big, bigCount = j, counts[j]
			}
		}
		if big >= 0 {
			counts[big]--
			counts[i]++
		}
	}

	plan := &resolvePlan{assign: make([]resolveAssign, np), sub: make([]*Force, nc)}
	pid := 0
	for i := 0; i < nc; i++ {
		if counts[i] == 0 {
			plan.leftover = append(plan.leftover, i)
			// Leftover components execute on the full force.
			plan.sub[i] = newSubForce(f, np)
			continue
		}
		plan.sub[i] = newSubForce(f, counts[i])
		for r := 0; r < counts[i]; r++ {
			plan.assign[pid] = resolveAssign{component: i, rank: r}
			pid++
		}
	}
	return plan
}

// newSubForce builds a scoped force sharing the parent's machine profile
// but with its own barrier, locks, construct table and stats.  Sub-forces
// have no workers of their own: their processes are the parent's workers,
// re-scoped.
func newSubForce(parent *Force, np int) *Force {
	sub := &Force{
		np:        np,
		profile:   parent.profile,
		barKind:   parent.barKind,
		chunk:     parent.chunk,
		tr:        parent.tr,
		askfor:    parent.askfor,
		pcaseKind: parent.pcaseKind,
		reduceK:   parent.reduceK,
		// Fault containment is force-wide: a sub-force's processes are
		// the parent's workers, so they share the parent's poison cell
		// and a failure in any component aborts the whole Resolve.
		// (No sites slice: sub-force Procs carry the parent process's
		// watchdog slot by pointer.)
		pc: parent.pc,
	}
	sub.bar = barrier.New(sub.barKind, np, sub.profile.LockFactory())
	barrier.SetPoison(sub.bar, sub.pc)
	sub.locks = lock.NewSet(sub.profile.LockFactory())
	sub.initFusedEps()
	return sub
}
