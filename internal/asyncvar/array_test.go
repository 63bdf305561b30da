package asyncvar

import (
	"sync"
	"testing"
	"unsafe"

	"repro/internal/lock"
)

func TestArrayBasics(t *testing.T) {
	for _, impl := range Impls() {
		a := NewArray[int](impl, lock.Factory(lock.TTAS), 8)
		if a.Len() != 8 {
			t.Fatalf("%v: Len = %d", impl, a.Len())
		}
		if a.FullCount() != 0 {
			t.Errorf("%v: fresh array has full cells", impl)
		}
		a.Produce(3, 33)
		a.Produce(5, 55)
		if a.FullCount() != 2 {
			t.Errorf("%v: FullCount = %d, want 2", impl, a.FullCount())
		}
		if got := a.Copy(3); got != 33 {
			t.Errorf("%v: Copy(3) = %d", impl, got)
		}
		if got := a.Consume(3); got != 33 {
			t.Errorf("%v: Consume(3) = %d", impl, got)
		}
		if a.At(5).IsFull() != true || a.At(3).IsFull() != false {
			t.Errorf("%v: cell independence broken", impl)
		}
		a.VoidAll()
		if a.FullCount() != 0 {
			t.Errorf("%v: VoidAll left full cells", impl)
		}
	}
}

// TestArrayCellsIndependent: producing one cell never unblocks a consumer
// of a different cell.
func TestArrayCellsIndependent(t *testing.T) {
	a := NewArray[int](FullEmpty, nil, 4)
	got := make(chan int, 1)
	go func() { got <- a.Consume(2) }()
	a.Produce(1, 11) // different cell: consumer must stay blocked
	select {
	case v := <-got:
		t.Fatalf("Consume(2) returned %d after Produce(1)", v)
	default:
	}
	a.Produce(2, 22)
	if v := <-got; v != 22 {
		t.Fatalf("Consume(2) = %d, want 22", v)
	}
}

// TestArrayCopySemantics pins the Copy contract on every realization
// (the two-lock protocol of the non-HEP machines, the full/empty word
// standing in for HEP hardware, and the parked condvar shape): Copy
// waits for full, returns the value, and leaves the cell full —
// repeatedly.
func TestArrayCopySemantics(t *testing.T) {
	for _, impl := range Impls() {
		a := NewArray[int](impl, lock.Factory(lock.TTAS), 4)
		a.Produce(1, 77)
		for i := 0; i < 5; i++ {
			if got := a.Copy(1); got != 77 {
				t.Fatalf("%v: Copy #%d = %d, want 77", impl, i, got)
			}
		}
		if !a.At(1).IsFull() {
			t.Errorf("%v: Copy emptied the cell", impl)
		}
		// Copy blocks on an empty cell until a Produce fills it.
		got := make(chan int, 1)
		go func() { got <- a.Copy(2) }()
		select {
		case v := <-got:
			t.Fatalf("%v: Copy(2) returned %d from an empty cell", impl, v)
		default:
		}
		a.Produce(2, 5)
		if v := <-got; v != 5 {
			t.Fatalf("%v: Copy(2) = %d, want 5", impl, v)
		}
		// The value is still there for a real Consume.
		if v := a.Consume(2); v != 5 {
			t.Fatalf("%v: Consume after Copy = %d, want 5", impl, v)
		}
	}
}

// TestArrayConcurrentCopies hammers one full cell with concurrent Copy
// readers (the broadcast-style read the Force User's Manual added Copy
// for) while IsFull is polled — the -race job validates the internal
// synchronization of both the two-lock and the full/empty realizations.
func TestArrayConcurrentCopies(t *testing.T) {
	for _, impl := range Impls() {
		a := NewArray[int](impl, lock.Factory(lock.System), 2)
		a.Produce(0, 42)
		var wg sync.WaitGroup
		for r := 0; r < 8; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					if got := a.Copy(0); got != 42 {
						t.Errorf("%v: concurrent Copy = %d, want 42", impl, got)
						return
					}
					a.At(0).IsFull() // advisory read alongside
				}
			}()
		}
		wg.Wait()
		if got := a.Consume(0); got != 42 {
			t.Fatalf("%v: value damaged by concurrent Copies: %d", impl, got)
		}
	}
}

// TestArrayVoidSemantics pins the Void contract: voiding a full cell
// empties it (discarding the value), voiding an empty cell is a no-op,
// and the cell is usable for a fresh Produce/Consume cycle afterwards —
// per cell, without disturbing its neighbours.
func TestArrayVoidSemantics(t *testing.T) {
	for _, impl := range Impls() {
		a := NewArray[int](impl, lock.Factory(lock.TTAS), 3)
		a.Produce(0, 1)
		a.Produce(2, 3)
		a.Void(0) // full -> empty
		a.Void(1) // already empty: no-op
		if a.At(0).IsFull() || a.At(1).IsFull() {
			t.Errorf("%v: Void left a cell full", impl)
		}
		if !a.At(2).IsFull() {
			t.Errorf("%v: Void disturbed a neighbour cell", impl)
		}
		// A voided cell accepts a fresh transfer: Produce must not block
		// (it would if Void had left the two-lock state inconsistent).
		done := make(chan int, 1)
		go func() {
			a.Produce(0, 9)
			done <- a.Consume(0)
		}()
		if got := <-done; got != 9 {
			t.Fatalf("%v: fresh cycle after Void = %d, want 9", impl, got)
		}
		if got := a.Consume(2); got != 3 {
			t.Fatalf("%v: neighbour value = %d, want 3", impl, got)
		}
	}
}

// TestArrayWavefront uses per-cell full/empty state for dataflow-style
// dependency propagation, the HEP's signature idiom: each worker consumes
// its predecessor cell and produces its own.
func TestArrayWavefront(t *testing.T) {
	for _, impl := range Impls() {
		const n = 32
		a := NewArray[int](impl, lock.Factory(lock.System), n)
		var wg sync.WaitGroup
		for i := 1; i < n; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				prev := a.Consume(i - 1) // wait for predecessor
				a.Produce(i-1, prev)     // refill for verification
				a.Produce(i, prev+1)
			}()
		}
		a.Produce(0, 100)
		wg.Wait()
		for i := 0; i < n; i++ {
			if got := a.Consume(i); got != 100+i {
				t.Fatalf("%v: cell %d = %d, want %d", impl, i, got, 100+i)
			}
		}
	}
}

// TestArrayFullEmptySlab: a full/empty Array is one slab of padded
// cells, not an allocation per cell, and neighbouring cells' words sit
// at least a cache line apart.
func TestArrayFullEmptySlab(t *testing.T) {
	allocs := testing.AllocsPerRun(20, func() { NewArray[int](FullEmpty, nil, 64) })
	if allocs > 3 {
		t.Errorf("NewArray of 64 full/empty cells made %v allocations, want at most 3 (array, cell slice, slab)", allocs)
	}
	a := NewArray[int](FullEmpty, nil, 2)
	c0, c1 := a.At(0).(*fullEmpty[int]), a.At(1).(*fullEmpty[int])
	gap := uintptr(unsafe.Pointer(c1)) - uintptr(unsafe.Pointer(c0)) - unsafe.Sizeof(*c0)
	if gap < 64 {
		t.Errorf("neighbouring cells %d bytes apart, want a cache line", gap)
	}
	// The first park allocates the set's wake channel; a cell nobody
	// waits on allocates nothing.
	v := New[int](FullEmpty, nil)
	if n := testing.AllocsPerRun(100, func() { v.Produce(1); v.Consume() }); n != 0 {
		t.Errorf("an uncontended Produce/Consume allocated %v times", n)
	}
}
