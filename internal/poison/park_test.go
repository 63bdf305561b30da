package poison

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestAwaitWokenByRelease: a waiter parked on a condition returns once a
// releaser changes the state and wakes the set, with and without the
// spin phase.
func TestAwaitWokenByRelease(t *testing.T) {
	for _, spin := range []bool{false, true} {
		c := NewCell()
		c.SetSpin(spin)
		var s Sleepers
		var ready atomic.Bool
		done := make(chan struct{})
		go func() {
			Await(c, &s, ready.Load)
			close(done)
		}()
		time.Sleep(5 * time.Millisecond)
		ready.Store(true)
		s.Wake()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("spin=%v: waiter not woken by the release", spin)
		}
	}
}

// TestAwaitAbortsOnPoison: a parked waiter unwinds with Abort when the
// cell is poisoned, and leaves the set unregistered.
func TestAwaitAbortsOnPoison(t *testing.T) {
	c := NewCell()
	var s Sleepers
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		Await(c, &s, func() bool { return false })
	}()
	time.Sleep(2 * time.Millisecond)
	c.Poison(errors.New("stop"))
	select {
	case r := <-done:
		if _, ok := r.(Abort); !ok {
			t.Fatalf("waiter unwound with %T, want Abort", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("poisoned waiter did not wake")
	}
	if n := s.n.Load(); n != 0 {
		t.Fatalf("%d waiters still registered after the abort", n)
	}
}

// TestAwaitNilCellParks: without a cell the waiter parks at once (no
// spin phase), and a Wake still reaches it.
func TestAwaitNilCellParks(t *testing.T) {
	var s Sleepers
	var ready atomic.Bool
	tries := atomic.Int32{}
	done := make(chan struct{})
	go func() {
		Await(nil, &s, func() bool { tries.Add(1); return ready.Load() })
		close(done)
	}()
	for s.n.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	if n := tries.Load(); n > 2 {
		t.Fatalf("nil-cell waiter tried %d times before parking, want no spin", n)
	}
	ready.Store(true)
	s.Wake()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("nil-cell waiter not woken")
	}
}

// TestWakeRelaysToEveryWaiter: one Wake of a condition every waiter can
// pass (a drained pool, a full cell read by Copy) reaches all of them.
func TestWakeRelaysToEveryWaiter(t *testing.T) {
	const waiters = 8
	var s Sleepers
	var open atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			Await(nil, &s, open.Load)
		}()
	}
	for s.n.Load() != waiters {
		time.Sleep(time.Millisecond)
	}
	open.Store(true)
	s.Wake()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%d of %d waiters still parked after one Wake", s.n.Load(), waiters)
	}
}

// TestAwaitHandoffs: two goroutines pass a token back and forth through
// two one-slot conditions, each waiter on its own set; every handoff
// must arrive, spinning or parking.
func TestAwaitHandoffs(t *testing.T) {
	for _, spin := range []bool{false, true} {
		c := NewCell()
		c.SetSpin(spin)
		const hops = 20000
		var ping, pong atomic.Bool
		var onPing, onPong Sleepers
		done := make(chan struct{})
		go func() {
			for i := 0; i < hops; i++ {
				Await(c, &onPing, func() bool { return ping.CompareAndSwap(true, false) })
				pong.Store(true)
				onPong.Wake()
			}
			close(done)
		}()
		for i := 0; i < hops; i++ {
			ping.Store(true)
			onPing.Wake()
			Await(c, &onPong, func() bool { return pong.CompareAndSwap(true, false) })
		}
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("spin=%v: handoff chain stalled", spin)
		}
	}
}

func TestSetSpin(t *testing.T) {
	var nilCell *Cell
	nilCell.SetSpin(true)
	if nilCell.Spins() {
		t.Fatal("nil cell spins")
	}
	c := NewCell()
	if c.Spins() {
		t.Fatal("fresh cell spins before SetSpin")
	}
	c.SetSpin(true)
	if !c.Spins() {
		t.Fatal("SetSpin(true) not recorded")
	}
	c.SetSpin(false)
	if c.Spins() {
		t.Fatal("SetSpin(false) not recorded")
	}
}
