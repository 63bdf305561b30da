// Package poison implements the Force runtime's fault-containment
// protocol: a per-run cancellation cell that every blocking primitive of
// the runtime observes.
//
// The 1989 system had nothing here — "a process which panics while its
// peers are inside a barrier leaves them blocked, exactly as an aborted
// process did on the 1989 machines" was this repository's documented
// behaviour through PR 3, and it is disqualifying for a runtime that has
// to run unattended: a single non-uniform runtime error turned into a
// whole-force hang (or, under Go's all-asleep detector, a raw goroutine
// dump).  Modern many-task runtimes treat fault propagation as a
// first-class runtime service; this package is that service for the
// Force.
//
// The protocol has four parts:
//
//   - Cell: an atomic poison flag plus a first-failure slot.  The first
//     process to fail records its panic value and poisons the cell
//     (later failures lose the race and are dropped — the force reports
//     the *first* failure, as the single-process path always did).
//     Poisoning closes a broadcast channel and runs subscriber hooks, so
//     primitives parked on channels or condition variables wake.
//   - Abort: the distinguished panic value blocked peers unwind with
//     when they observe poison.  The engine recovers Abort at the job
//     boundary and discards it — the original failure is in the cell.
//   - Await and Sleepers: the event-driven park/wake primitive.  A
//     waiter spins briefly (only while the force is not
//     oversubscribed), then registers in the condition's Sleepers set
//     and parks on its wake channel; the releaser wakes it directly,
//     and a poisoning wakes it through the cell's Done channel.  The
//     asynchronous variables and the Askfor pool wait through it.
//   - Wait: the older bounded spin-then-sleep wait policy.  The
//     remaining spinning primitives (barrier release waits, reduce
//     episode waits, lock acquisition inside condition-encoding
//     constructs) wait through it, so a waiter observes poison within
//     one park interval, and an oversubscribed waiter stops pinning a
//     core instead of spinning unboundedly.
//
// A nil *Cell is valid everywhere and means "no poison wired": Poisoned
// reports false, Check is a no-op, Wait degenerates to the plain
// spin-then-park policy, and Await parks at once.  That keeps the
// primitives usable standalone (unit tests, benchmarks) without a
// runtime above them.
package poison

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Abort is the distinguished panic value a process unwinds with after
// observing that its force was poisoned.  It is not an error in itself:
// the failure that poisoned the force travels in the Cell, and the
// engine's job boundary recovers and discards Abort panics.
type Abort struct {
	// Err describes the first failure, for debugging an Abort that
	// escapes the runtime (it never should).
	Err error
}

func (a Abort) String() string {
	return fmt.Sprintf("poison.Abort(force aborted by: %v)", a.Err)
}

// AsError converts a recovered panic value into an error: errors pass
// through, anything else is wrapped.
func AsError(v any) error {
	switch e := v.(type) {
	case nil:
		return nil
	case error:
		return e
	default:
		return fmt.Errorf("panic: %v", v)
	}
}

// Cause classifies WHY a cell was poisoned.  The distinction matters at
// the Run boundary: an internal failure (a process panicked) re-panics
// out of Run, while an external cancellation (a context deadline, a
// watchdog, a graceful shutdown) is an expected, service-shaped outcome
// that core.Force.RunContext returns as an error.
type Cause int

const (
	// CauseNone: the cell is not poisoned.
	CauseNone Cause = iota
	// CauseFailure: a process of the force panicked (the PR-4 protocol's
	// original, and only, cause).
	CauseFailure
	// CauseExternal: something OUTSIDE the force asked it to stop — a
	// context's cancellation or deadline, forcerun's stall watchdog, or
	// a draining Force.Shutdown.  The poison value is the cancellation
	// error (context.Canceled, context.DeadlineExceeded, a watchdog
	// report).
	CauseExternal
)

// String returns the cause's short name.
func (c Cause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseFailure:
		return "failure"
	case CauseExternal:
		return "external"
	default:
		return fmt.Sprintf("poison.Cause(%d)", int(c))
	}
}

// Cell is the cancellation cell of one force: an atomic poison flag and
// the first failure's panic value, tagged with its Cause.  A Cell is
// created once per force and rearmed (Reset) between runs, so
// primitives bind to it once.
//
// All methods are safe on a nil *Cell, which behaves as a cell that is
// never poisoned.
type Cell struct {
	flag atomic.Bool
	spin atomic.Bool // waiters may spin before parking (SetSpin)

	mu    sync.Mutex
	val   any
	cause Cause
	ch    chan struct{}
	subs  map[int]func()
	next  int
}

// NewCell returns an armed, unpoisoned cell.
func NewCell() *Cell {
	return &Cell{ch: make(chan struct{})}
}

// SetSpin records whether the force's processes each have a CPU of
// their own (np <= GOMAXPROCS), which is when Await may spin before it
// parks.  An oversubscribed force parks at once: a spinning waiter
// would hold the CPU the process it waits for needs.  Core sets it at
// the start of every Run.  A no-op on a nil cell.
func (c *Cell) SetSpin(on bool) {
	if c != nil {
		c.spin.Store(on)
	}
}

// Spins reports whether Await may spin on this cell before it parks:
// SetSpin's last value, false on a nil cell.
func (c *Cell) Spins() bool { return c != nil && c.spin.Load() }

// Poison records v as the force's first failure (CauseFailure) and
// broadcasts: the wake channel closes and every subscriber hook runs.
// Only the first call wins; Poison reports whether this call was it.
// Poisoning a nil cell reports false.
func (c *Cell) Poison(v any) bool { return c.PoisonCause(v, CauseFailure) }

// PoisonExternal poisons the cell with an external cancellation: err is
// recorded as the poison value under CauseExternal.  Context wiring
// (core.Force.RunContext), stall watchdogs and graceful shutdowns use
// it; the Run boundary returns external poisons as errors instead of
// re-panicking them.
func (c *Cell) PoisonExternal(err error) bool { return c.PoisonCause(err, CauseExternal) }

// PoisonCause is Poison with an explicit cause.  First caller wins,
// whatever its cause — the force reports its FIRST termination reason.
func (c *Cell) PoisonCause(v any, cause Cause) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	if c.flag.Load() {
		c.mu.Unlock()
		return false
	}
	c.val = v
	c.cause = cause
	c.flag.Store(true)
	close(c.ch)
	subs := make([]func(), 0, len(c.subs))
	for _, fn := range c.subs {
		subs = append(subs, fn)
	}
	c.mu.Unlock()
	// Each hook runs in its own goroutine: hooks take primitive locks
	// (condition-variable broadcasts), and a primitive's lock can be
	// held by a process whose own wake depends on a *different* hook —
	// a barrier section parked in an asynchronous variable, say.
	// Sequential dispatch could then deadlock the abort protocol on
	// hook ordering; concurrent dispatch cannot.
	for _, fn := range subs {
		go fn()
	}
	return true
}

// Poisoned reports whether the cell is poisoned.  Lock-free; this is the
// check on every hot wait path.
func (c *Cell) Poisoned() bool {
	return c != nil && c.flag.Load()
}

// Value returns the first failure's panic value (nil when unpoisoned).
func (c *Cell) Value() any {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.val
}

// Cause returns why the cell was poisoned (CauseNone when unpoisoned).
func (c *Cell) Cause() Cause {
	if c == nil {
		return CauseNone
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cause
}

// Err returns the first failure as an error (nil when unpoisoned).
func (c *Cell) Err() error {
	if !c.Poisoned() {
		return nil
	}
	return AsError(c.Value())
}

// Done returns the wake channel: closed when the cell is poisoned,
// recreated by Reset.  A nil cell returns a nil channel (blocks forever
// in a select — the correct degenerate behaviour).
func (c *Cell) Done() <-chan struct{} {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	ch := c.ch
	c.mu.Unlock()
	return ch
}

// Check panics with Abort if the cell is poisoned; otherwise (and on a
// nil cell) it is a single atomic load.
func (c *Cell) Check() {
	if c.Poisoned() {
		panic(Abort{Err: c.Err()})
	}
}

// Subscribe registers a hook run once per poisoning.  Hooks wake
// primitives that park on their own condition variables and cannot
// select on Done; each hook runs on its own goroutine (see Poison).
// Subscribing while the cell is ALREADY poisoned still registers the
// hook (it also fires once right away): the registration must survive
// a Reset, or a primitive bound during the poisoned window would be
// deaf to every later poisoning — a silent reintroduction of the hang
// this package eliminates.  The returned cancel function unregisters
// the hook; primitives with a shorter lifetime than the cell
// (per-construct pools) must call it when retired, or the hook pins
// them for the cell's lifetime.
func (c *Cell) Subscribe(fn func()) (cancel func()) {
	if c == nil {
		return func() {}
	}
	c.mu.Lock()
	poisonedNow := c.flag.Load()
	if c.subs == nil {
		c.subs = map[int]func(){}
	}
	id := c.next
	c.next++
	c.subs[id] = fn
	c.mu.Unlock()
	if poisonedNow {
		go fn()
	}
	return func() {
		c.mu.Lock()
		delete(c.subs, id)
		c.mu.Unlock()
	}
}

// SubscribeBroadcast registers the canonical condition-variable wake
// hook: lock-then-unlock mu before broadcasting, so a waiter between
// its poison check and cond.Wait (it holds mu there) cannot miss the
// wakeup.  Shared by every parked primitive (the cond barrier, the
// cond asynchronous variable, both engine pools).  Returns the cancel,
// or a no-op when no cell is wired.
func SubscribeBroadcast(c *Cell, mu sync.Locker, cond *sync.Cond) (cancel func()) {
	if c == nil {
		return func() {}
	}
	return c.Subscribe(func() {
		mu.Lock()
		mu.Unlock() //nolint:staticcheck // empty critical section orders the broadcast
		cond.Broadcast()
	})
}

// Rebind is the SetPoison lifecycle shared by rebindable parked
// primitives: cancel the previous broadcast subscription (if any) and
// take a new one on c.  A nil c just cancels.
func Rebind(cancel func(), c *Cell, mu sync.Locker, cond *sync.Cond) func() {
	if cancel != nil {
		cancel()
	}
	if c == nil {
		return nil
	}
	return SubscribeBroadcast(c, mu, cond)
}

// Reset rearms a poisoned cell for the next run: the failure slot
// clears and a fresh wake channel is installed.  Subscribers persist —
// they belong to primitives whose lifetime is the force's, not the
// run's.  Reset must only be called while no process can block on the
// cell (between runs).  A no-op on an unpoisoned or nil cell.
func (c *Cell) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	if c.flag.Load() {
		c.val = nil
		c.cause = CauseNone
		c.ch = make(chan struct{})
		c.flag.Store(false)
	}
	c.mu.Unlock()
}

// The shared wait policy: a bounded yield-spiced spin catches fast
// releases under real parallelism, after which the waiter parks in
// escalating sleeps — on an oversubscribed machine (more processes than
// CPUs, the 1989 normality and the CI box's too) parked waiters leave
// the scheduler to the processes that still owe progress instead of
// cycling through the run queue, and a poisoned waiter wakes within one
// park interval.
const (
	spinBudget = 256
	yieldEvery = 8
	parkFloor  = 5 * time.Microsecond
	parkCeil   = 200 * time.Microsecond
	relayCeil  = 20 * time.Microsecond
)

// Wait blocks until pred reports true, spinning briefly and then
// parking, and panics with Abort if c is poisoned first.  pred must be
// side-effect-free until it returns true (it is re-evaluated
// arbitrarily often); a pred that acquires a resource on success (a
// TryLock) is fine, because Wait returns immediately on the first true.
func Wait(c *Cell, pred func() bool) { waitCeil(c, pred, parkCeil) }

// WaitRelay is Wait with a much shorter park ceiling, for waits whose
// release is a sequential handoff (the two-lock barrier's BARWOT
// relay, an asynchronous variable's E/F pair): each hop of a relay
// chain pays the waiter's current park interval as wake latency, so a
// long park would multiply down the whole chain.
func WaitRelay(c *Cell, pred func() bool) { waitCeil(c, pred, relayCeil) }

func waitCeil(c *Cell, pred func() bool, ceil time.Duration) {
	for i := 0; i < spinBudget; i++ {
		if pred() {
			return
		}
		c.Check()
		if i%yieldEvery == yieldEvery-1 {
			runtime.Gosched()
		}
	}
	d := parkFloor
	for {
		if pred() {
			return
		}
		c.Check()
		time.Sleep(d)
		if d < ceil {
			d *= 2
		}
	}
}
