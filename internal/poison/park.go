package poison

import "sync/atomic"

// Sleepers is the waiter set of one condition: the processes parked in
// Await until the condition holds.  It is the runtime's event-driven
// park/wake primitive.  A waiter spins for a bounded time, then
// registers here and parks on the set's wake channel; a releaser
// changes the state the condition reads and calls Wake, which hands a
// registered waiter a token directly.  The zero value is ready to use
// and allocates nothing until its first park.
//
// The handshake is the Dekker pattern: the releaser's state change and
// the waiter's registration are both sequentially consistent atomics,
// and each side then reads the other's variable (Wake loads the waiter
// count, a registered waiter re-tries its condition), so at least one
// side always observes the other and no wakeup is lost.
//
// A condition that can admit several waiters at once (a full cell that
// Copy reads and leaves full, a pool whose work ran out) needs every
// waiter woken, not one: a woken waiter whose wait succeeds hands the
// token on while others are still registered, so one Wake relays down
// the whole set.  Conditions that only one waiter can consume at a time
// keep the set to one wake per release.  Give each condition its own
// set: waiters for "empty" and waiters for "full" of one cell sharing a
// token can consume each other's wakeups.
type Sleepers struct {
	n  atomic.Int32                  // registered waiters
	ch atomic.Pointer[chan struct{}] // wake tokens, made on the first park
}

// spinTries bounds the spin phase of Await: a few microseconds of
// re-tries for a cell's CAS (more for a pool's steal sweep), long
// enough to catch a release from a peer on another core without paying
// for a park and a wake.  It does not yield: a waiter that yields
// mid-spin hands its CPU to whatever is runnable and comes back late.
const spinTries = 1 << 12

// Await returns once try reports true.  try is the condition and its
// acquisition in one: it is re-run arbitrarily often and must take
// effect only when it returns true (a CAS that claims a cell, a
// successful steal).  The waiter re-tries in a bounded spin while the
// force is not oversubscribed (see SetSpin), then registers in s and
// parks until a Wake or until c is poisoned, in which case it unwinds
// with Abort.  The cell's Done channel is read only on the park path.
// A nil cell never spins and never aborts a park.
func Await(c *Cell, s *Sleepers, try func() bool) {
	if c.Spins() {
		for i := 0; i < spinTries; i++ {
			if try() {
				return
			}
			c.Check()
		}
	}
	s.park(c, try)
}

// park registers the waiter and blocks on the wake channel, re-trying
// after every wake.
func (s *Sleepers) park(c *Cell, try func() bool) {
	wake := s.ch.Load()
	if wake == nil {
		ch := make(chan struct{}, 1)
		if s.ch.CompareAndSwap(nil, &ch) {
			wake = &ch
		} else {
			wake = s.ch.Load()
		}
	}
	// Registered before the re-try: a release that the re-try misses
	// sees the count and sends a token.
	s.n.Add(1)
	woken := false
	for !try() {
		if c == nil {
			// No cell wired: nothing but a Wake can end the wait.
			<-*wake
			woken = true
			continue
		}
		select {
		case <-*wake:
			woken = true
		case <-c.Done():
			s.n.Add(-1)
			c.Check()
		}
	}
	s.n.Add(-1)
	if woken {
		s.Wake()
	}
}

// Wake wakes one registered waiter, if there is one.  Call it after
// the state change the waiters' condition reads; it is one atomic load
// when nobody is parked.
func (s *Sleepers) Wake() {
	if s.n.Load() != 0 {
		s.wake()
	}
}

// wake sends a token without blocking.  A full channel already holds a
// token that a registered waiter will take and re-try on, after this
// release's state change, so dropping the send loses nothing.
func (s *Sleepers) wake() {
	select {
	case *s.ch.Load() <- struct{}{}:
	default:
	}
}
