// Package asyncvar implements the Force's asynchronous variables: shared
// variables of class Async carrying a full/empty state changed atomically
// with read and write access (paper §3.2, §3.4, §4.2).
//
// The operations are the paper's:
//
//   - Produce waits for the variable to be empty, writes the value, and
//     sets the state to full;
//   - Consume waits for the variable to be full, reads the value, and sets
//     the state to empty;
//   - Void sets the state to empty regardless of its previous state
//     (initialization);
//   - IsFull tests the state without changing it.
//
// Copy (wait for full, read, leave full) comes from the Force User's
// Manual [JBAR87] and is included for the application codes that need a
// broadcast-style read.
//
// Three implementations reproduce the portability story.  On the HEP every
// memory cell had a hardware full/empty bit; on every other machine the
// Force synthesized the state from two locks E and F: "An empty state
// corresponds to E being locked and F unlocked.  A full state corresponds
// to F being locked and E unlocked."  The two-lock implementation here
// follows that protocol literally; the full/empty implementation stands
// in for the HEP hardware (one atomic state word per cell is its
// full/empty bit, and waiters park through poison.Await on separate
// "wait for empty" and "wait for full" sets); the condition-variable
// implementation is the parked, system-call shape.
package asyncvar

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/lock"
	"repro/internal/poison"
)

// V is a full/empty asynchronous variable holding values of type T.
//
// Void (and only Void) must not race with in-flight Produce/Consume on the
// same variable: the paper positions it as state initialization, and the
// two-lock realization has no atomic way to cancel an in-flight transfer —
// a constraint inherited faithfully from the original.
type V[T any] interface {
	// Produce waits for empty, writes v, and marks the variable full.
	Produce(v T)
	// Consume waits for full, reads the value, and marks it empty.
	Consume() T
	// Copy waits for full and reads the value, leaving it full.
	Copy() T
	// Void forces the state to empty, discarding any value.
	Void()
	// IsFull reports the current state without modifying it.  The answer
	// is advisory: it may be stale by the time the caller acts on it,
	// exactly as a tested full/empty bit was on the HEP.
	IsFull() bool
}

// Poisonable is implemented by asynchronous variables that observe a
// poison cell: a Produce/Consume/Copy blocked while the force is
// poisoned unwinds with poison.Abort instead of waiting for a transfer
// that can never happen.  Every implementation in this package supports
// it.
type Poisonable interface {
	// SetPoison binds the variable's waits to the cell (nil unbinds).
	// It must not be called concurrently with variable operations.
	SetPoison(c *poison.Cell)
}

// SetPoison binds v to the poison cell when v supports it.
func SetPoison[T any](v V[T], c *poison.Cell) {
	if p, ok := v.(Poisonable); ok {
		p.SetPoison(c)
	}
}

// Impl names an asynchronous-variable implementation.
type Impl int

const (
	// TwoLock synthesizes full/empty from two locks E and F, the paper's
	// protocol for every non-HEP machine.
	TwoLock Impl = iota
	// FullEmpty models the HEP's hardware full/empty bit with one
	// atomic state word per cell.
	FullEmpty
	// CondVar parks waiters on a condition variable (system-call
	// category).
	CondVar
)

var implNames = map[Impl]string{
	TwoLock:   "twolock",
	FullEmpty: "fullempty",
	CondVar:   "condvar",
}

// String returns the implementation's short name.
func (i Impl) String() string {
	if s, ok := implNames[i]; ok {
		return s
	}
	return fmt.Sprintf("asyncvar.Impl(%d)", int(i))
}

// ParseImpl converts a short name into an Impl.
func ParseImpl(s string) (Impl, error) {
	for i, n := range implNames {
		if n == s {
			return i, nil
		}
	}
	return 0, fmt.Errorf("asyncvar: unknown impl %q", s)
}

// Impls lists the implementations in presentation order.
func Impls() []Impl { return []Impl{TwoLock, FullEmpty, CondVar} }

// New creates an empty asynchronous variable.  The lock factory supplies E
// and F for the TwoLock implementation (nil defaults to system locks) and
// is ignored by the others.
func New[T any](impl Impl, factory func() lock.Lock) V[T] {
	switch impl {
	case TwoLock:
		if factory == nil {
			factory = lock.Factory(lock.System)
		}
		v := &twoLockVar[T]{e: factory(), f: factory()}
		// Empty state: E locked, F unlocked.
		v.e.Lock()
		return v
	case FullEmpty:
		return new(fullEmpty[T])
	case CondVar:
		cv := &condVar[T]{}
		cv.cond = sync.NewCond(&cv.mu)
		return cv
	default:
		panic(fmt.Sprintf("asyncvar: unknown impl %d", int(impl)))
	}
}

// twoLockVar is the paper's two-lock realization.  State invariant when no
// operation is in flight: empty ⇔ E locked ∧ F unlocked; full ⇔ F locked ∧
// E unlocked.  During a transfer both are briefly locked, which is what
// serializes concurrent producers (they queue on F) and concurrent
// consumers (they queue on E).
type twoLockVar[T any] struct {
	e, f lock.Lock
	val  T
	pc   *poison.Cell
	// full mirrors the lock-encoded state for IsFull/Void; writes happen
	// while both locks are held, so a mutex-free bool would race only
	// with the advisory readers — we guard it with its own tiny lock to
	// stay race-detector clean.
	stMu sync.Mutex
	full bool
}

var _ V[int] = (*twoLockVar[int])(nil)
var _ Poisonable = (*twoLockVar[int])(nil)

// SetPoison binds the E/F waits to the cell.  The two locks encode the
// full/empty condition — a consumer waits in E's acquire until some
// producer runs — so acquisition goes through lock.Acquire.
func (v *twoLockVar[T]) SetPoison(c *poison.Cell) { v.pc = c }

// Produce follows the paper: "Lock F / Write to the asynchronous variable /
// Unlock E."  Other producers find F locked and wait.
func (v *twoLockVar[T]) Produce(x T) {
	faultinject.Fire(faultinject.AsyncProduce, -1, v.pc)
	lock.Acquire(v.f, v.pc)
	v.val = x
	v.setFull(true)
	v.e.Unlock()
}

// Consume follows the paper: "Lock E / Read from the asynchronous variable /
// Unlock F."  While a Produce is in progress a consumer waits until E is
// unlocked.
func (v *twoLockVar[T]) Consume() T {
	faultinject.Fire(faultinject.AsyncConsume, -1, v.pc)
	lock.Acquire(v.e, v.pc)
	x := v.val
	v.setFull(false)
	v.f.Unlock()
	return x
}

// Copy waits for full (E unlocked), reads, and restores E, leaving the
// variable full.
func (v *twoLockVar[T]) Copy() T {
	faultinject.Fire(faultinject.AsyncCopy, -1, v.pc)
	lock.Acquire(v.e, v.pc)
	x := v.val
	v.e.Unlock()
	return x
}

// Void forces the empty state.  If the variable is full it performs the
// lock half of a Consume and discards the value; if already empty it is a
// no-op.  See the interface comment for the non-concurrency requirement.
func (v *twoLockVar[T]) Void() {
	v.stMu.Lock()
	wasFull := v.full
	v.stMu.Unlock()
	if !wasFull {
		return
	}
	lock.Acquire(v.e, v.pc)
	var zero T
	v.val = zero
	v.setFull(false)
	v.f.Unlock()
}

// IsFull reports the advisory state.
func (v *twoLockVar[T]) IsFull() bool {
	v.stMu.Lock()
	defer v.stMu.Unlock()
	return v.full
}

func (v *twoLockVar[T]) setFull(b bool) {
	v.stMu.Lock()
	v.full = b
	v.stMu.Unlock()
}

// Cell states of fullEmpty.  busy is the transfer in flight: the
// operation that claimed the cell owns its value until it stores the
// new state.
const (
	empty uint32 = iota
	full
	busy
)

// fullEmpty models the HEP hardware full/empty cell literally: one
// atomic state word is the cell's full/empty bit, and an operation
// claims the cell by a CAS from the state it waits for to busy, moves
// the value, and stores the new state.  A waiter for the other state
// waits through poison.Await on that state's own waiter set, and every
// store out of busy wakes the set waiting for the state it stores.
type fullEmpty[T any] struct {
	st      atomic.Uint32
	val     T
	pc      *poison.Cell
	onEmpty poison.Sleepers // producers waiting for empty
	onFull  poison.Sleepers // consumers and copiers waiting for full
}

var _ V[int] = (*fullEmpty[int])(nil)
var _ Poisonable = (*fullEmpty[int])(nil)

// SetPoison binds the cell's waits to c: a parked waiter also wakes on
// the cell's poisoning, and spins first only while c says the force
// is not oversubscribed.
func (v *fullEmpty[T]) SetPoison(c *poison.Cell) { v.pc = c }

// claim moves the state from `from` to busy, reporting success.
func (v *fullEmpty[T]) claim(from uint32) bool {
	return v.st.Load() == from && v.st.CompareAndSwap(from, busy)
}

// acquire claims the cell in state from, waiting in s until it can.
func (v *fullEmpty[T]) acquire(from uint32, s *poison.Sleepers) {
	if !v.claim(from) {
		poison.Await(v.pc, s, func() bool { return v.claim(from) })
	}
}

// Produce waits for empty, writes, and marks the cell full.
func (v *fullEmpty[T]) Produce(x T) {
	faultinject.Fire(faultinject.AsyncProduce, -1, v.pc)
	v.acquire(empty, &v.onEmpty)
	v.val = x
	v.st.Store(full)
	v.onFull.Wake()
}

// Consume waits for full, reads, and marks the cell empty.
func (v *fullEmpty[T]) Consume() T {
	faultinject.Fire(faultinject.AsyncConsume, -1, v.pc)
	v.acquire(full, &v.onFull)
	x := v.take()
	v.st.Store(empty)
	v.onEmpty.Wake()
	return x
}

// Copy waits for full and reads, leaving the cell full.  Other full
// waiters may have seen the cell busy meanwhile, so it wakes them too.
func (v *fullEmpty[T]) Copy() T {
	faultinject.Fire(faultinject.AsyncCopy, -1, v.pc)
	v.acquire(full, &v.onFull)
	x := v.val
	v.st.Store(full)
	v.onFull.Wake()
	return x
}

// Void empties a full cell and discards its value.  A transfer in
// flight (which V forbids Void to race) is let finish first.
func (v *fullEmpty[T]) Void() {
	for !v.claim(full) {
		if v.st.Load() == empty {
			return
		}
		v.pc.Check()
		runtime.Gosched()
	}
	v.take()
	v.st.Store(empty)
	v.onEmpty.Wake()
}

// take moves the value out, so an empty cell does not pin it.
func (v *fullEmpty[T]) take() T {
	x := v.val
	var zero T
	v.val = zero
	return x
}

// IsFull reports whether the cell's state is full.
func (v *fullEmpty[T]) IsFull() bool { return v.st.Load() == full }

// condVar is the parked implementation: one mutex, one condition variable,
// an explicit full bit.
type condVar[T any] struct {
	mu    sync.Mutex
	cond  *sync.Cond
	val   T
	full  bool
	pc    *poison.Cell
	unsub func()
}

var _ V[int] = (*condVar[int])(nil)
var _ Poisonable = (*condVar[int])(nil)

// SetPoison binds the parked waiters to the cell.  Waiters park on the
// condition variable, which a poison cannot close, so the variable
// subscribes a broadcast hook; rebinding (or binding nil) cancels the
// previous subscription.
func (v *condVar[T]) SetPoison(c *poison.Cell) {
	v.unsub = poison.Rebind(v.unsub, c, &v.mu, v.cond)
	v.pc = c
}

// await parks until cond(v) holds, unwinding with poison.Abort when the
// force is poisoned first.  Called with mu held; returns with mu held.
func (v *condVar[T]) await(ready func() bool) {
	for !ready() && !v.pc.Poisoned() {
		v.cond.Wait()
	}
	if !ready() {
		v.mu.Unlock()
		v.pc.Check()
	}
}

// Produce waits for empty under the mutex, writes, and wakes waiters.
func (v *condVar[T]) Produce(x T) {
	faultinject.Fire(faultinject.AsyncProduce, -1, v.pc)
	v.mu.Lock()
	v.await(func() bool { return !v.full })
	v.val = x
	v.full = true
	v.mu.Unlock()
	v.cond.Broadcast()
}

// Consume waits for full under the mutex, reads, and wakes waiters.
func (v *condVar[T]) Consume() T {
	faultinject.Fire(faultinject.AsyncConsume, -1, v.pc)
	v.mu.Lock()
	v.await(func() bool { return v.full })
	x := v.val
	v.full = false
	v.mu.Unlock()
	v.cond.Broadcast()
	return x
}

// Copy waits for full and reads without emptying.
func (v *condVar[T]) Copy() T {
	faultinject.Fire(faultinject.AsyncCopy, -1, v.pc)
	v.mu.Lock()
	v.await(func() bool { return v.full })
	x := v.val
	v.mu.Unlock()
	return x
}

// Void forces the empty state.
func (v *condVar[T]) Void() {
	v.mu.Lock()
	var zero T
	v.val = zero
	v.full = false
	v.mu.Unlock()
	v.cond.Broadcast()
}

// IsFull reports the current state.
func (v *condVar[T]) IsFull() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.full
}
