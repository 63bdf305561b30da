// Package repro is a from-scratch Go reproduction of "The Force: A Highly
// Portable Parallel Programming Language" (Jordan, Benten, Alaghband,
// Jakob; University of Colorado CSDG 89-2 / ICPP 1989).
//
// The repository contains both halves of the paper, layered as
//
//		forcelang            front end: lexer, parser, AST, checker for the
//		   │                 Force dialect (incl. language-level Askfor/Put
//		   │                 and the GSUM/GMAX global-reduction statements);
//		   │                 the checker records a (unit, slot) identity on
//		   │                 every declaration
//		   ├── vet           forcevet static analysis over the checked AST:
//		   │                 collective consistency (a Barrier/DOALL/GSUM
//		   │                 reachable under a non-uniform condition),
//		   │                 provable faults, shared-memory races, asyncvar
//		   │                 protocol breaks — structured FVnnn diagnostics
//		   │                 wired into forcec/forcerun (-vet=warn|err|off,
//		   │                 forcec -explain FVnnn) and cmd/forcevet; the
//		   │                 uniform/varying lattice and the affine
//		   │                 disjointness proofs live in internal/uniform,
//		   │                 shared with the chunk classifier below
//		   ├── interp        SPMD interpreter: a resolve pass binds every
//		   │                 reference to a (storage class, slot) pair and a
//		   │                 compile pass emits typed closures over
//		   │                 index-addressed frames — shared scalars are
//		   │                 atomic cells, shared arrays lock-striped — and
//		   │                 a classify pass (uniform vs varying) lets safe
//		   │                 DOALL bodies run as chunk-compiled tight loops
//		   │                 over the striped store's bulk walker, with the
//		   │                 per-iteration compiler and the original tree
//		   │                 walker kept as A/B baselines (forcerun -exec
//		   │                 chunked|compiled|tree, forcebench T11); a fuse
//		   │                 pass between classify and chunk merges runs of
//		   │                 adjacent provably-independent DOALLs into one
//		   │                 region — exit barriers elided, a trailing
//		   │                 GSUM/GPROD/GMAX/GMIN folded into the region's
//		   │                 closing join (forcerun -fuse=on|off, forcebench
//		   │                 T14)
//		   └── codegen       compiler back end emitting Go against core
//		        │
//		        ├── aot      cached native tier: a structural hash of the
//		        │            checked AST (plus the semantics-affecting
//		        │            options) keys a content-addressed cache of
//		        │            go-built binaries — build once, exec forever;
//		        │            forcerun -exec aot|auto promotes hot programs
//		        │            from the chunked interpreter to the cached
//		        │            binary (forcebench T12)
//		        ▼
//		      core           the runtime: Force/Proc with every construct —
//		        │            DOALLs, Pcase, Askfor, Resolve, barriers,
//		        │            criticals, produce/consume, global reductions
//		   ┌────┼───────┬──────────┐
//		   ▼    ▼       ▼          ▼
//		 engine sched reduce  barrier / lock / asyncvar / shm / machine
//
//	  - internal/reduce is the global-reduction layer: one collective
//	    combine-and-broadcast primitive (sum, product, max, min, and, or,
//	    and custom operators) with selectable strategies — the paper's
//	    critical-section baseline, padded private slots combined in pid
//	    order, a combining tree sharing barrier.TreeTopology, and a
//	    lock-free CAS fold for integer operators — selected per force
//	    with core.WithReduce and surfaced as the language's GSUM/GPROD/
//	    GMAX/GMIN/GAND/GOR statements and the -reduce CLI flags;
//
//	  - internal/engine is the work-distribution substrate: a persistent
//	    force of NP worker goroutines (created once, reused by every Run —
//	    the paper's create-force-then-reuse driver), Chase-Lev work-stealing
//	    deques, and the WorkSource interface that unifies the paper's three
//	    generic constructs: Askfor draws from an engine.Pool (stealing
//	    deques that end when their last worker goes idle, or the [LO83]
//	    central monitor), selfscheduled Pcase and DOALL
//	    loops draw from internal/sched disciplines, among them the
//	    engine-backed Stealing kind;
//
//	  - internal/sched provides the loop-scheduling disciplines
//	    (prescheduled block/cyclic, the paper's lock-based selfscheduling,
//	    fetch-and-add, chunked, guided, trapezoid, stealing); guided spans
//	    (sched.DefaultSelfsched) run every tier's Selfsched DO unless a
//	    -selfsched flag picks another, and the paper's one iteration per
//	    lock stays available as selfsched-lock;
//
//	  - internal/barrier, internal/lock, internal/asyncvar, internal/shm and
//	    internal/machine model the machine-dependent layer of the paper:
//	    barrier algorithms, lock categories, full/empty asynchronous
//	    variables (an atomic full/empty word per cell for the HEP's
//	    hardware bit, the two-lock scheme elsewhere), shared-memory
//	    designation, and the emulated profiles of the six 1989 machines
//	    the Force was ported to;
//
//	  - the portability architecture (internal/sedlite, internal/m4lite,
//	    internal/maclib) reproduces the two-pass macro preprocessor with its
//	    machine-independent statement-macro layer over machine-dependent
//	    low-level layers;
//
//	  - internal/poison is the fault-containment layer: a per-force
//	    cancellation cell (atomic poison flag + first-failure slot) that
//	    every blocking primitive observes — all barrier kinds, reduction
//	    episodes, asynchronous variables, Askfor pools and loop drivers;
//	    its Await is the event-driven park/wake primitive the full/empty
//	    cells and the stealing Askfor pool wait through.
//	    A runtime error in any process poisons the force, blocked peers
//	    unwind with a distinguished abort panic recovered at the engine's
//	    job boundary, core.Force.Run re-panics the first failure after
//	    all processes stop, and the persistent force rebuilds its per-run
//	    construct state so the next Run starts clean.  On the paper's
//	    1989 machines the same failure wedged the whole force forever.
//	    forcerun surfaces the protocol as a prompt "force runtime" error
//	    exit at any NP, plus a -hang-timeout stall watchdog that reports
//	    which processes are blocked at which construct and line.  The
//	    cell also carries an external cause: core.Force.RunContext
//	    poisons through it when a context is canceled or its deadline
//	    passes, so the same wake-and-unwind path serves forcerun
//	    -timeout, Force.Shutdown, and the aot tier's kill of the child's
//	    process group (forcebench T13 measures the cancel latency);
//
//	  - internal/faultinject is the chaos layer over the same choke
//	    points: 17 named injection sites (barrier.enter ... fuse.join)
//	    threaded through the runtime's blocking primitives, each one
//	    atomic load when disarmed.  A seeded plan — FORCE_FAULTS env or
//	    the programmatic API — arms panic/delay/stall injectors at a
//	    site; the chaos sweep (TestChaos*) asserts every corpus program
//	    x tier x np x injection ends in the correct output or a clean
//	    abort carrying the injected failure, never a deadlock.
//
// See README.md for the quickstart, DESIGN.md for the system inventory
// and experiment index, and EXPERIMENTS.md for paper-vs-measured results.
// The benchmarks in bench_test.go and the cmd/forcebench harness
// regenerate every experiment table; forcebench -exp T9 -json FILE emits
// the monitor-vs-stealing Askfor comparison, T10 the reduction-strategy
// comparison, T11 the tree-walker vs closure-compiler vs chunk-tier
// interpreter comparison, T12 the chunked-interpreter vs cached
// native (aot) tier comparison, T13 the cancellation-latency
// distribution per tier, and T14 the fused-pipeline comparison with
// the runtime's steady-state allocation counts machine-readably (the
// committed BENCH_*.json baselines).
package repro
