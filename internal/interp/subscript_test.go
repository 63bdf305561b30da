package interp

// subscript_test.go — 2-D subscripts on the slot-resolved tiers: every
// engine reports the same fault for the same bad subscript, in the same
// order (all subscripts evaluated, then bounds checked in dimension
// order), and evaluating a subscript tuple allocates nothing.

import (
	"fmt"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/forcelang"
)

// TestSubscript2DParity drives 2-D subscript faults through shared
// arrays, private arrays and an array parameter, as loads and as
// stores, inside a DOALL (the chunk tier's path) and outside one.  The
// tree walker, the closure compiler and the chunk tier must abort with
// the identical message: an out-of-range first or second subscript
// names its dimension, and a division by zero in the second subscript
// wins over a first subscript that is also out of range, because every
// subscript is evaluated before any is bounds-checked.
func TestSubscript2DParity(t *testing.T) {
	faults := []struct {
		name, subs, want string
	}{
		{"dim1", "I + 5, 1", "subscript 1 of %s out of range: 6 not in [1,4]"},
		{"dim2", "1, I + 3", "subscript 2 of %s out of range: 4 not in [1,3]"},
		{"dim2-div-zero", "I + 8, 1 / (I - I)", "integer division by zero"},
	}
	// Each shape places the faulting reference at line 10 of its
	// program; the parameter shape faults at line 17, in SETQ.
	shapes := []struct {
		name, arr, body string
	}{
		{"shared-store-doall", "S", "Presched DO I = 1, 4\n  S(%s) = 2.0\nEnd Presched DO"},
		{"shared-load-doall", "S", "Presched DO I = 1, 4\n  X = S(%s)\nEnd Presched DO"},
		{"private-store-doall", "P", "Presched DO I = 1, 4\n  P(%s) = 2.0\nEnd Presched DO"},
		{"private-load-doall", "P", "Presched DO I = 1, 4\n  X = P(%s)\nEnd Presched DO"},
		{"shared-load-seq", "S", "DO I = 1, 4\n  X = S(%s) + 1.0\nEnd DO"},
		{"param-store", "Q", "I = 1\n  Call SETQ(S, I)\nI = 2"},
	}
	for _, f := range faults {
		for _, sh := range shapes {
			t.Run(f.name+"/"+sh.name, func(t *testing.T) {
				body := strings.ReplaceAll(sh.body, "%s", f.subs)
				src := fmt.Sprintf(`Force SUB2 of NP ident ME
Shared Real S(4, 3)
Private Real P(4, 3)
Private Real X
Private Integer I
End Declarations
X = 0.0
I = 0
%s
Join
Forcesub SETQ(Q, I)
Shared Real Q(4, 3)
Private Integer I
End Declarations
Q(%s) = 1.0
Endsub
`, body, f.subs)
				prog, err := forcelang.Parse(src)
				if err != nil {
					t.Fatalf("parse: %v\n%s", err, src)
				}
				line := 10
				if sh.name == "param-store" {
					line = 17
				}
				want := fmt.Sprintf("force runtime: line %d: ", line)
				if strings.Contains(f.want, "%s") {
					want += fmt.Sprintf(f.want, sh.arr)
				} else {
					want += f.want
				}
				for _, mode := range ExecModes() {
					err := Run(prog, Config{NP: 1, Exec: mode})
					if err == nil || err.Error() != want {
						t.Errorf("%s: error %v, want %q", mode, err, want)
					}
				}
			})
		}
	}
}

// TestSubscript2DAllocFree is the allocation gate on subscript
// evaluation: a DOALL over 2-D shared and private arrays allocates the
// same per Run whether its body executes 10 or 100 times per index, on
// the chunk tier and on the per-iteration compiled path.  One allocation
// per 2-D access would add 11,520 per Run at the larger size; the slack
// only absorbs the ±1 per Run that the runtime's goroutine handoffs
// vary by at a fixed size.
func TestSubscript2DAllocFree(t *testing.T) {
	src := func(reps int) *forcelang.Program {
		return forcelang.MustParse(fmt.Sprintf(`Force ALLOC2 of NP ident ME
Shared Real A(8, 8)
Private Real P(8, 8)
Private Integer I, J, R
End Declarations
Presched DO I = 1, 8
  DO R = 1, %d
    DO J = 1, 8
      P(I, J) = REAL(I + J + R)
      A(I, J) = P(I, J) * 0.5 + A(I, J)
    End DO
  End DO
End Presched DO
Join
`, reps))
	}
	small, large := src(10), src(100)
	// A collection empties the chunk tier's sync.Pools at a moment that
	// depends on run length; with the collector off, both sizes see the
	// same pool hits and the counts are exact.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, mode := range []ExecMode{ExecCompiled, ExecChunked} {
		t.Run(mode.String(), func(t *testing.T) {
			allocs := func(prog *forcelang.Program) float64 {
				return testing.AllocsPerRun(5, func() {
					if err := Run(prog, Config{NP: 1, Exec: mode}); err != nil {
						t.Fatal(err)
					}
				})
			}
			const slack = 3
			a, b := allocs(small), allocs(large)
			if b > a+slack || a > b+slack {
				t.Errorf("allocs per Run: %v at 10 reps, %v at 100 reps; subscripts allocate", a, b)
			}
		})
	}
}
