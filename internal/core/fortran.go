package core

import (
	"math"
	"strconv"
	"sync/atomic"
	"unsafe"

	"repro/internal/asyncvar"
)

// AsyncCell is the asynchronous-variable interface as referenced by
// code generated with internal/codegen; asyncvar.V satisfies it.
// (A generic type alias would be the natural spelling, but the module
// targets Go 1.22, which does not permit parameterized aliases.)
type AsyncCell[T any] interface {
	// Produce waits for empty, writes v, and marks the variable full.
	Produce(v T)
	// Consume waits for full, reads the value, and marks it empty.
	Consume() T
	// Copy waits for full and reads the value, leaving it full.
	Copy() T
	// Void forces the state to empty.
	Void()
	// IsFull reports the advisory state.
	IsFull() bool
}

var _ AsyncCell[int] = (asyncvar.V[int])(nil)

// number covers the numeric types Force programs use.
type number interface {
	~int | ~int64 | ~float64
}

// Min is the Fortran MIN intrinsic for generated code.
func Min[T number](xs ...T) T {
	best := xs[0]
	for _, x := range xs[1:] {
		if x < best {
			best = x
		}
	}
	return best
}

// Max is the Fortran MAX intrinsic for generated code.
func Max[T number](xs ...T) T {
	best := xs[0]
	for _, x := range xs[1:] {
		if x > best {
			best = x
		}
	}
	return best
}

// Abs is the Fortran ABS intrinsic for generated code.
func Abs[T number](x T) T {
	if x < 0 {
		return -x
	}
	return x
}

// Mod is the Fortran MOD intrinsic for generated code: integer remainder
// for integers, math.Mod for reals.
func Mod[T number](a, b T) T {
	switch av := any(a).(type) {
	case int:
		return any(av % int(any(b).(int))).(T)
	case int64:
		return any(av % int64(any(b).(int64))).(T)
	default:
		return any(math.Mod(any(a).(float64), any(b).(float64))).(T)
	}
}

// AddInt atomically adds d to *p.  Generated code folds a shared
// INTEGER accumulator statement (S = S ± e) with it, so processes
// accumulating into one cell inside a parallel construct do not race.
func AddInt(p *int, d int) {
	if strconv.IntSize == 64 {
		atomic.AddInt64((*int64)(unsafe.Pointer(p)), int64(d))
	} else {
		atomic.AddInt32((*int32)(unsafe.Pointer(p)), int32(d))
	}
}

// Sqrt is the Fortran SQRT intrinsic for generated code.
func Sqrt(x float64) float64 { return math.Sqrt(x) }

// Nint is the Fortran NINT intrinsic for generated code (round to nearest
// integer).
func Nint(x float64) int { return int(math.Round(x)) }
