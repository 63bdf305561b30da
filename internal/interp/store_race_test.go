package interp

// Race coverage for the compiled executor's per-variable shared store
// (run with go test -race, as the CI race job does): concurrent
// disjoint-element writes to atomic-word arrays, same-element
// critical-section read-modify-writes, typed element loads racing typed
// stores, and asynchronous Produce/Consume flowing through
// slot-resolved frames.

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/forcelang"
	"repro/internal/shm"
)

// TestSharedArrayDisjointElementWrites drives an 8-process force
// through a DOALL whose iterations write disjoint shared-array elements
// in parallel, then folds the array to check no write was lost.  Under
// ExecChunked the first loop runs through the chunk tier's typed
// element stores, so the race job covers them against the fold's
// per-iteration loads.
func TestSharedArrayDisjointElementWrites(t *testing.T) {
	for _, mode := range []ExecMode{ExecCompiled, ExecChunked} {
		t.Run(mode.String(), func(t *testing.T) {
			out := run(t, `Force DISJ of NP ident ME
Shared Real A(512)
Shared Real S
Private Integer I
End Declarations
Presched DO I = 1, 512
  A(I) = REAL(I) * 2.0
End Presched DO
Barrier
  S = 0.0
End Barrier
Selfsched DO I = 1, 512
  Critical FOLD
    S = S + A(I)
  End Critical
End Selfsched DO
Barrier
  Print NINT(S)
End Barrier
Join
`, Config{NP: 8, Exec: mode})
			// 2 * (1 + ... + 512) = 512 * 513.
			if got := strings.TrimSpace(out); got != "262656" {
				t.Errorf("out = %q", got)
			}
		})
	}
}

// TestSharedArraySameElementCriticalWrites hammers one element of a
// shared array from every process inside a critical section: the
// element's atomic word and the construct lock compose without losing
// updates.
func TestSharedArraySameElementCriticalWrites(t *testing.T) {
	out := run(t, `Force SAME of NP ident ME
Shared Integer C(8)
Private Integer I
End Declarations
Barrier
  C(3) = 0
End Barrier
Presched DO I = 1, 400
  Critical BUMP
    C(3) = C(3) + 1
  End Critical
End Presched DO
Barrier
  Print C(3)
End Barrier
Join
`, Config{NP: 8, Exec: ExecCompiled})
	if got := strings.TrimSpace(out); got != "400" {
		t.Errorf("out = %q", got)
	}
}

// TestAsyncThroughSlotFrames pushes Produce/Consume traffic through
// subroutine frames: the async entry is resolved at compile time, the
// subscript and the transferred values flow through slot-addressed
// private storage of each call frame.
func TestAsyncThroughSlotFrames(t *testing.T) {
	out := run(t, `Force ASYNCF of NP ident ME
Async Integer Q(4)
Shared Integer TOTAL
Private Integer I
End Declarations
Barrier
  TOTAL = 0
End Barrier
IF (ME .EQ. 0) THEN
  DO I = 1, 40
    Call FEED(I)
  End DO
End IF
IF (ME .GT. 0) THEN
  DO I = 1, 10
    Call DRAIN
  End DO
End IF
Barrier
  Print 'total', TOTAL
End Barrier
Join
Forcesub FEED(V)
Private Integer V
Private Integer SLOT
End Declarations
SLOT = MOD(V, 4) + 1
Produce Q(SLOT) = V
Endsub
Forcesub DRAIN()
Private Integer X, SLOT
End Declarations
SLOT = MOD(ME - 1, 4) + 1
Consume Q(SLOT) into X
Critical ACC
  TOTAL = TOTAL + X
End Critical
Endsub
`, Config{NP: 5, Exec: ExecCompiled})
	// Every produced value 1..40 is consumed exactly once.
	if got := strings.TrimSpace(out); got != "total 820" {
		t.Errorf("out = %q", got)
	}
}

// TestSharedArrayDirect exercises the array store below the language:
// concurrent disjoint stores, then concurrent same-element updates under
// an external mutex (the compiled Critical pattern), must never lose a
// write or trip the race detector.
func TestSharedArrayDirect(t *testing.T) {
	d := forcelang.Decl{Class: shm.Shared, Type: forcelang.TInt, Name: "A", Dims: []int{1024}}
	a := newSharedArray(d)
	var wg sync.WaitGroup
	for p := 0; p < 8; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := p; i < 1024; i += 8 {
				a.store(i, intVal(int64(i)))
			}
		}(p)
	}
	wg.Wait()
	for i := 0; i < 1024; i++ {
		if v := a.load(i); v.i != int64(i) {
			t.Fatalf("a[%d] = %d", i, v.i)
		}
	}
	var mu sync.Mutex
	for p := 0; p < 8; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				mu.Lock()
				a.store(7, intVal(a.load(7).i+1))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if v := a.load(7); v.i != 7+8*200 {
		t.Errorf("a[7] = %d, want %d", v.i, 7+8*200)
	}
}

// TestSharedArrayTypedConcurrent drives the typed element accessors
// the compilers emit, for each element type: eight writers store
// disjoint strides through storeInt/storeReal/storeBool while eight
// readers load every element through the typed loads and the boxed
// load.  A reader must only ever see the zero word or the one value
// its element's writer stores (no torn or foreign value), every write
// must land, and the race detector must stay quiet.
func TestSharedArrayTypedConcurrent(t *testing.T) {
	const n = 4096
	want := func(i int) float64 { return float64(3*i) + 0.5 }
	for _, typ := range []forcelang.Type{forcelang.TInt, forcelang.TReal, forcelang.TLogical} {
		t.Run(typ.String(), func(t *testing.T) {
			a := newSharedArray(forcelang.Decl{Class: shm.Shared, Type: typ, Name: "A", Dims: []int{n}})
			store := func(i int) {
				switch typ {
				case forcelang.TInt:
					a.storeInt(i, int64(3*i))
				case forcelang.TReal:
					a.storeReal(i, want(i))
				default:
					a.storeBool(i, i%3 != 0)
				}
			}
			// ok reports whether element i holds its zero value or its
			// written value, read through the typed and the boxed load.
			ok := func(i int) bool {
				v := a.load(i)
				switch typ {
				case forcelang.TInt:
					x := a.loadInt(i)
					return (x == 0 || x == int64(3*i)) && v.t == typ && (v.i == 0 || v.i == int64(3*i))
				case forcelang.TReal:
					x := a.loadReal(i)
					return (x == 0 || x == want(i)) && v.t == typ && (v.r == 0 || v.r == want(i))
				default:
					x := a.loadBool(i)
					return (!x || i%3 != 0) && v.t == typ && (!v.b || i%3 != 0)
				}
			}
			var wg sync.WaitGroup
			var bad sync.Once
			for p := 0; p < 8; p++ {
				wg.Add(2)
				go func(p int) {
					defer wg.Done()
					for i := p; i < n; i += 8 {
						store(i)
					}
				}(p)
				go func(p int) {
					defer wg.Done()
					for i := (p * 97) % n; i < n; i++ {
						if !ok(i) {
							bad.Do(func() { t.Errorf("element %d read a value never stored", i) })
						}
					}
				}(p)
			}
			wg.Wait()
			for i := 0; i < n; i++ {
				var got, exp value
				switch typ {
				case forcelang.TInt:
					got, exp = intVal(a.loadInt(i)), intVal(int64(3*i))
				case forcelang.TReal:
					got, exp = realVal(a.loadReal(i)), realVal(want(i))
				default:
					got, exp = boolVal(a.loadBool(i)), boolVal(i%3 != 0)
				}
				if got != exp || a.load(i) != exp {
					t.Fatalf("element %d = %v (boxed %v), want %v", i, got, a.load(i), exp)
				}
			}
		})
	}
}

// TestSharedScalarAddInt checks the accumulator entry point the chunk
// tier flushes private sums through: concurrent addInt deltas (positive
// and negative) against concurrent typed loads, with an exact total.
func TestSharedScalarAddInt(t *testing.T) {
	c := newSharedScalar(forcelang.TInt)
	var wg sync.WaitGroup
	for p := 0; p < 8; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if p%2 == 0 {
					c.addInt(3)
				} else {
					c.addInt(-1)
				}
			}
		}(p)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			c.loadInt()
		}
	}()
	wg.Wait()
	<-done
	if got := c.loadInt(); got != 4*1000*3-4*1000 {
		t.Errorf("total = %d, want %d", got, 4*1000*3-4*1000)
	}
}

// TestSharedScalarDirect checks the atomic scalar cell under concurrent
// typed stores: every load observes one of the stored values, whole.
func TestSharedScalarDirect(t *testing.T) {
	c := newSharedScalar(forcelang.TReal)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.store(realVal(float64(p) + 0.25))
			}
		}(p)
	}
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			v := c.load()
			frac := v.r - float64(int(v.r))
			if v.r != 0 && frac != 0.25 {
				t.Error("torn read:", v.r)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
}
