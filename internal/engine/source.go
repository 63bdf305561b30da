package engine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/poison"
)

// WorkSource is the unified work-distribution interface: every Force
// construct that deals out work at run time — selfscheduled DOALL loops,
// selfscheduled Pcase, and the Askfor pool — draws tasks from one.  Next
// returns the next task for process pid; ok is false when pid's work is
// exhausted (for a dynamic source, when the whole pool has drained).
//
// The paper's three "generic constructs" (§3.3) differ only in where
// their tasks come from: a static index space (DOALL), a static block
// list (Pcase), or a run-time-growing pool (Askfor).  A WorkSource
// captures exactly that difference, so one distribution substrate — the
// per-process work-stealing deques of this package — can serve all three.
type WorkSource interface {
	Next(pid int) (task any, ok bool)
}

// Pool is a dynamic WorkSource: tasks may be added while the pool is
// being drained — the Askfor's "request during run time that a new
// concurrent instance of the code segment is executed".  Every task
// handed out by Next must be matched by exactly one Done call; the pool
// terminates (Next returns ok=false everywhere) when no task is queued
// and none is executing.
type Pool interface {
	WorkSource
	// Put adds a task on behalf of process pid.  It must be called by
	// the goroutine that is pid — tasks land on pid's own deque.
	Put(pid int, task any)
	// Done records that a task returned by Next finished executing.
	Done(pid int)
	// Close retires the pool: it cancels the pool's poison
	// subscription, so a pool that outlives its construct does not pin
	// the cell.  A closed pool must not be used again.
	Close()
}

// PoolKind selects a Pool implementation.
type PoolKind int

const (
	// StealingPool distributes tasks over per-process Chase-Lev deques:
	// lock-free local put/get, steal-half on miss.  The default.
	StealingPool PoolKind = iota
	// MonitorPool is the historical baseline: one central queue behind a
	// mutex and condition variable, the [LO83] askfor monitor discipline
	// (and this repository's runtime before the engine existed).
	MonitorPool
)

// String returns the pool kind's short name.
func (k PoolKind) String() string {
	switch k {
	case StealingPool:
		return "stealing"
	case MonitorPool:
		return "monitor"
	default:
		return fmt.Sprintf("engine.PoolKind(%d)", int(k))
	}
}

// GoName returns the kind's Go identifier within this package, the form
// code generators emit.
func (k PoolKind) GoName() string {
	if k == MonitorPool {
		return "MonitorPool"
	}
	return "StealingPool"
}

// PoolKinds lists the pool implementations in presentation order.
func PoolKinds() []PoolKind { return []PoolKind{MonitorPool, StealingPool} }

// ParsePoolKind converts a short name into a PoolKind.
func ParsePoolKind(s string) (PoolKind, error) {
	for _, k := range PoolKinds() {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("engine: unknown pool kind %q", s)
}

// NewPool creates a task pool for np processes, pre-loaded with the seed
// tasks.  The constructor must complete before any process uses the pool
// (the core runtime publishes it through a sync.Once).  A non-nil cell
// binds the pool to the force's fault-containment protocol: a process
// parked waiting for tasks unwinds with poison.Abort when the force is
// poisoned (a peer died mid-task, so the pool can never drain).  Call
// Close when the construct retires to release the poison subscription.
func NewPool(kind PoolKind, np int, seed []any, cell *poison.Cell) Pool {
	if np <= 0 {
		panic(fmt.Sprintf("engine: np = %d, need np >= 1", np))
	}
	switch kind {
	case StealingPool:
		p := &stealingPool{
			np:     np,
			deques: make([]*Deque[any], np),
			hands:  make([]handSlot, np),
			free:   make([]freeList, np),
			pc:     cell,
		}
		for i := range p.deques {
			p.deques[i] = NewDeque[any](16)
		}
		for i, t := range seed {
			p.deques[i%np].Push(t)
		}
		return p
	case MonitorPool:
		p := &monitorPool{pc: cell}
		p.cond = sync.NewCond(&p.mu)
		p.queue = append(p.queue, seed...)
		p.outstanding = len(p.queue)
		p.unsub = poison.SubscribeBroadcast(cell, &p.mu, p.cond)
		return p
	default:
		panic(fmt.Sprintf("engine: unknown pool kind %d", int(kind)))
	}
}

// stealingPool distributes tasks over per-process deques.  It keeps no
// count of queued or executing tasks: it ends when its last worker goes
// idle.  A worker counts itself idle only once its own hand and deque
// are empty, and uncounts itself before any steal or hand raid, so
// while every worker is counted idle no task is queued, none is
// executing, and none can be put again.  Put and Done touch no shared
// counter.  Idle workers wait through poison.Await on one waiter set:
// a Put wakes one of them, and termination wakes them all.
//
// Each process additionally keeps one "hand" slot (the Go scheduler's
// runnext idea): a freshly put task parks there, displacing the previous
// occupant onto the shared deque.  The putter almost always consumes its
// own newest task next (depth-first expansion), so the hand turns that
// round trip into one atomic swap — and because the hand is an atomic
// box pointer, thieves can raid it once every deque is dry, so a task is
// never withheld from the force while its putter blocks inside a body.
//
// Tasks travel in boxes (*any) that each worker recycles through a
// private free list, so steady-state Put/Next traffic allocates nothing:
// a box moves hand → deque → claimant and returns to the claimant's free
// list for its next Put.
type stealingPool struct {
	np     int
	deques []*Deque[any]
	hands  []handSlot
	free   []freeList
	pc     *poison.Cell

	// sleepers is read by every Put; idle and done are written by idle
	// workers only, on a line of their own.
	sleepers poison.Sleepers
	_        [48]byte
	idle     atomic.Int32 // workers counted idle
	done     atomic.Bool  // every worker was idle at once: the pool drained
	_        [56]byte
}

// Close is a no-op: idle workers park on the pool's own waiter set,
// which holds no subscription on the poison cell.
func (p *stealingPool) Close() {}

// handSlot holds the owner's newest task as an atomic box pointer;
// padded so neighbouring slots do not false-share a cache line.
type handSlot struct {
	p atomic.Pointer[any]
	_ [56]byte
}

// freeList is a worker-private cache of task boxes.
type freeList struct {
	boxes []*any
	_     [40]byte
}

// box wraps a task, reusing a cached box when the worker has one.
func (p *stealingPool) box(pid int, task any) *any {
	fl := &p.free[pid]
	if n := len(fl.boxes); n > 0 {
		b := fl.boxes[n-1]
		fl.boxes = fl.boxes[:n-1]
		*b = task
		return b
	}
	b := new(any)
	*b = task
	return b
}

// unbox extracts a claimed box's task and caches the box for reuse by
// this worker.  Safe because a box has exactly one claimant: deque
// claims go through the top CAS, hand claims through Swap.
func (p *stealingPool) unbox(pid int, b *any) any {
	t := *b
	*b = nil // do not pin the task value while the box idles in the cache
	fl := &p.free[pid]
	if len(fl.boxes) < 64 {
		fl.boxes = append(fl.boxes, b)
	}
	return t
}

func (p *stealingPool) Put(pid int, task any) {
	b := p.box(pid, task)
	if old := p.hands[pid].p.Swap(b); old != nil {
		p.deques[pid].PushRef(old)
	}
	// The swap is a seq-cst RMW before Wake's load of the waiter count;
	// a parking worker registers before it re-seeks (see Sleepers).
	p.sleepers.Wake()
}

func (p *stealingPool) Done(pid int) {}

func (p *stealingPool) Next(pid int) (any, bool) {
	if b := p.hands[pid].p.Swap(nil); b != nil {
		return p.unbox(pid, b), true
	}
	p.pc.Check()
	if b, ok := p.deques[pid].PopRef(); ok {
		return p.unbox(pid, b), true
	}
	// Own hand and deque are empty: idle until work turns up elsewhere.
	if p.goIdle() {
		return nil, false
	}
	var got *any
	seek := func() bool {
		got = p.seek(pid)
		return got != nil || p.done.Load()
	}
	if !seek() {
		// Park until a Put lands or the pool drains.  A poisoning
		// unwinds the wait with poison.Abort.
		faultinject.Fire(faultinject.EnginePark, pid, p.pc)
		poison.Await(p.pc, &p.sleepers, seek)
	}
	if got == nil {
		return nil, false
	}
	return p.unbox(pid, got), true
}

// goIdle counts the calling worker idle and reports whether that made
// every worker idle, in which case the pool has drained.
func (p *stealingPool) goIdle() bool {
	if p.idle.Add(1) < int32(p.np) {
		return false
	}
	p.done.Store(true)
	p.sleepers.Wake() // the woken waiter relays the wake to the rest
	return true
}

// seek looks for a task outside the idle worker's own hand and deque:
// steals from the other deques first, then raids the other hands, so
// owners keep their newest tasks while the deques hold work.  The
// worker is uncounted while it looks.  It returns nil when it found
// nothing (or the pool drained, which seek may detect itself).
func (p *stealingPool) seek(pid int) *any {
	if p.done.Load() || !p.workVisible() {
		return nil
	}
	p.idle.Add(-1)
	own := p.deques[pid]
	faultinject.Fire(faultinject.EngineSteal, pid, p.pc)
	for i := 1; i < p.np; i++ {
		if b, ok := p.stealHalf(own, p.deques[(pid+i)%p.np]); ok {
			return b
		}
	}
	faultinject.Fire(faultinject.EngineHand, pid, p.pc)
	for i := 1; i < p.np; i++ {
		if b := p.hands[(pid+i)%p.np].p.Swap(nil); b != nil {
			return b
		}
	}
	p.goIdle()
	return nil
}

// stealHalf takes one task from the victim and migrates up to half of the
// victim's remaining backlog onto the thief's own deque, so a process that
// ran dry refills in one raid instead of returning per task.  Boxes move
// whole; migration allocates nothing.
func (p *stealingPool) stealHalf(own, victim *Deque[any]) (*any, bool) {
	b, ok := victim.StealRef()
	if !ok {
		return nil, false
	}
	for n := victim.Size() / 2; n > 0; n-- {
		extra, ok := victim.StealRef()
		if !ok {
			break
		}
		own.PushRef(extra)
	}
	return b, true
}

func (p *stealingPool) workVisible() bool {
	for _, d := range p.deques {
		if d.Size() > 0 {
			return true
		}
	}
	for i := range p.hands {
		if p.hands[i].p.Load() != nil {
			return true
		}
	}
	return false
}

// monitorPool is the central-queue baseline, semantically identical to the
// pre-engine askforState monitor: one mutex, one condition variable, LIFO
// dispatch.
type monitorPool struct {
	mu          sync.Mutex
	cond        *sync.Cond
	queue       []any
	outstanding int // queued + currently executing tasks

	pc    *poison.Cell
	unsub func()
}

// Close cancels the pool's poison subscription.
func (p *monitorPool) Close() {
	if p.unsub != nil {
		p.unsub()
		p.unsub = nil
	}
}

func (p *monitorPool) Put(pid int, task any) {
	p.mu.Lock()
	p.queue = append(p.queue, task)
	p.outstanding++
	p.mu.Unlock()
	p.cond.Signal()
}

func (p *monitorPool) Done(pid int) {
	p.mu.Lock()
	p.outstanding--
	done := p.outstanding == 0
	p.mu.Unlock()
	if done {
		p.cond.Broadcast()
	}
}

func (p *monitorPool) Next(pid int) (any, bool) {
	faultinject.Fire(faultinject.EnginePark, pid, p.pc)
	p.mu.Lock()
	for len(p.queue) == 0 && p.outstanding > 0 && !p.pc.Poisoned() {
		p.cond.Wait()
	}
	if p.pc.Poisoned() {
		p.mu.Unlock()
		p.pc.Check()
	}
	if p.outstanding == 0 {
		p.mu.Unlock()
		return nil, false
	}
	t := p.queue[len(p.queue)-1]
	p.queue = p.queue[:len(p.queue)-1]
	p.mu.Unlock()
	return t, true
}

// Span is a half-open interval [Lo, Hi) of loop ordinals.
type Span struct{ Lo, Hi int }

// SpanSource distributes a static ordinal space [0, n) over per-process
// stealing deques: process p's deque is seeded with the p-th contiguous
// block, local work is popped lock-free, and a process that runs dry
// steals a block from a victim.  Blocks split lazily — a popped or stolen
// block larger than the grain returns only its lower half and pushes the
// rest back — so stealing always finds large chunks early and the tail
// load-balances at grain granularity.
//
// SpanSource backs the sched package's Stealing discipline (DOALL loops)
// and the selfscheduled Pcase; as a WorkSource it yields Span tasks.
type SpanSource struct {
	np, grain int
	deques    []*Deque[Span]
}

// NewSpanSource creates a source over the ordinal space [0, n) for np
// processes.  grain is the largest interval Next hands out; grain <= 0
// selects max(1, n/(8·np)).
func NewSpanSource(np, n, grain int) *SpanSource {
	if np <= 0 {
		panic(fmt.Sprintf("engine: np = %d, need np >= 1", np))
	}
	if grain <= 0 {
		grain = n / (8 * np)
		if grain < 1 {
			grain = 1
		}
	}
	s := &SpanSource{np: np, grain: grain, deques: make([]*Deque[Span], np)}
	for i := range s.deques {
		s.deques[i] = NewDeque[Span](8)
	}
	// Seed contiguous blocks, sizes differing by at most one.
	base, rem := n/np, n%np
	lo := 0
	for p := 0; p < np; p++ {
		size := base
		if p < rem {
			size++
		}
		if size > 0 {
			s.deques[p].Push(Span{lo, lo + size})
		}
		lo += size
	}
	return s
}

// NextSpan returns the next interval for process pid, ok=false when the
// space looks exhausted.  Like all selfscheduling the assignment of
// ordinals to processes is nondeterministic; each ordinal is returned
// exactly once.
func (s *SpanSource) NextSpan(pid int) (Span, bool) {
	own := s.deques[pid]
	if sp, ok := own.Pop(); ok {
		return s.split(own, sp), true
	}
	for attempt := 0; attempt < 2; attempt++ {
		for i := 1; i < s.np; i++ {
			if sp, ok := s.deques[(pid+i)%s.np].Steal(); ok {
				return s.split(own, sp), true
			}
		}
		runtime.Gosched()
	}
	return Span{}, false
}

// split halves sp down to the grain, keeping the upper parts on the own
// deque where thieves can find them.
func (s *SpanSource) split(own *Deque[Span], sp Span) Span {
	for sp.Hi-sp.Lo > s.grain {
		mid := sp.Lo + (sp.Hi-sp.Lo)/2
		own.Push(Span{mid, sp.Hi})
		sp.Hi = mid
	}
	return sp
}

// Next implements WorkSource; the task is a Span.
func (s *SpanSource) Next(pid int) (any, bool) {
	sp, ok := s.NextSpan(pid)
	if !ok {
		return nil, false
	}
	return sp, true
}
