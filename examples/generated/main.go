// Code generated by forcec from Force program REDUCE; DO NOT EDIT.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"

	"repro/internal/asyncvar"
	"repro/internal/barrier"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/reduce"
	"repro/internal/sched"
)

// Imports are unconditional; not every program prints or loops.
var _ = fmt.Println
var _ sched.Range
var _ asyncvar.Impl
var _ reduce.Kind
var _ barrier.Kind
var _ engine.PoolKind

// zzErr is a Force runtime error carried by panic through the SPMD
// machinery; the poison protocol re-panics the first failure in the
// driver, whose recover reports it exactly as the interpreter does.
type zzErr struct{ msg string }

func (e zzErr) Error() string { return e.msg }

func zzPanicf(line int, format string, args ...any) {
	panic(zzErr{fmt.Sprintf("force runtime: line %d: %s", line, fmt.Sprintf(format, args...))})
}

// zzInt truncates toward zero at run time (a plain int() conversion of
// an untyped constant would be a compile error for non-integral values).
func zzInt(x float64) int { return int(x) }

func zzDiv(line, a, b int) int {
	if b == 0 {
		zzPanicf(line, "integer division by zero")
	}
	return a / b
}

func zzMod(line, a, b int) int {
	if b == 0 {
		zzPanicf(line, "MOD by zero")
	}
	return a % b
}

func zzSqrt(line int, x float64) float64 {
	if x < 0 {
		zzPanicf(line, "SQRT of negative value %g", x)
	}
	return math.Sqrt(x)
}

func zzIdx1(line int, name string, s, n int) int {
	if s < 1 || s > n {
		zzPanicf(line, "subscript 1 of %s out of range: %d not in [1,%d]", name, s, n)
	}
	return s - 1
}

func zzIdx2(line int, name string, s1, s2, d1, d2 int) int {
	if s1 < 1 || s1 > d1 {
		zzPanicf(line, "subscript 1 of %s out of range: %d not in [1,%d]", name, s1, d1)
	}
	if s2 < 1 || s2 > d2 {
		zzPanicf(line, "subscript 2 of %s out of range: %d not in [1,%d]", name, s2, d2)
	}
	return (s1-1)*d2 + s2 - 1
}

func zzChkStep(line, s int) int {
	if s == 0 {
		zzPanicf(line, "loop step is zero")
	}
	return s
}

func zzAsyncIdx(line int, name string, s, n int) int {
	if s < 1 || s > n {
		zzPanicf(line, "subscript of async array %s out of range: %d not in [1,%d]", name, s, n)
	}
	return s - 1
}

// zzReal formats a REAL the way the interpreter does: %g, with a ".0"
// appended when the result would otherwise read as an integer.
func zzReal(r float64) string {
	s := strconv.FormatFloat(r, 'g', -1, 64)
	if !strings.ContainsAny(s, ".eE") && !math.IsInf(r, 0) && !math.IsNaN(r) {
		s += ".0"
	}
	return s
}

var zzOutMu sync.Mutex

// zzPrintln prints one line with the interpreter's formatting: items
// space-joined, REALs through zzReal, logicals as T/F.
func zzPrintln(items ...any) {
	var b strings.Builder
	for i, it := range items {
		if i > 0 {
			b.WriteByte(' ')
		}
		switch v := it.(type) {
		case string:
			b.WriteString(v)
		case int:
			b.WriteString(strconv.Itoa(v))
		case float64:
			b.WriteString(zzReal(v))
		case bool:
			if v {
				b.WriteByte('T')
			} else {
				b.WriteByte('F')
			}
		default:
			fmt.Fprintf(&b, "%v", v)
		}
	}
	b.WriteByte('\n')
	zzOutMu.Lock()
	os.Stdout.WriteString(b.String())
	zzOutMu.Unlock()
}

// zzShared is the Force shared environment: shared and async
// variables of every program unit, COMMON-like.
type zzShared struct {
	DATA   []float64 // dims [1000]
	TOTAL  float64
	BIG    float64
	HITS   int
	RESULT core.AsyncCell[float64]
}

func zzNewShared(f *core.Force) *zzShared {
	s := &zzShared{}
	s.DATA = make([]float64, 1000)
	s.RESULT = core.NewAsync[float64](f)
	return s
}

func main() {
	np := flag.Int("np", 8, "number of force processes")
	flag.Parse()
	f := core.New(*np, core.WithReduce(reduce.PrivateSlots))
	defer f.Close()
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(zzErr); ok {
				fmt.Fprintln(os.Stderr, e.msg)
			} else {
				fmt.Fprintln(os.Stderr, "force runtime error:", r)
			}
			os.Exit(1)
		}
	}()
	shr := zzNewShared(f)
	_ = shr
	f.Run(func(p *core.Proc) {
		ME := p.ID()
		_ = ME
		var I int
		_ = I
		var LOCSUM float64
		_ = LOCSUM
		var LOCMAX float64
		_ = LOCMAX
		p.PreschedDo(sched.Range{Start: 1, Last: 1000, Incr: 1}, func(zzI int) {
			I = zzI
			shr.DATA[zzIdx1(23, "DATA", I, len(shr.DATA))] = (float64(I) / 1000.0)
		})
		LOCSUM = 0.0
		LOCMAX = 0.0
		p.DoAll(sched.Guided, sched.Range{Start: 1, Last: 1000, Incr: 1}, func(zzI int) {
			I = zzI
			LOCSUM = (LOCSUM + (shr.DATA[zzIdx1(28, "DATA", I, len(shr.DATA))] * shr.DATA[zzIdx1(28, "DATA", I, len(shr.DATA))]))
			if shr.DATA[zzIdx1(29, "DATA", I, len(shr.DATA))] > LOCMAX {
				LOCMAX = shr.DATA[zzIdx1(30, "DATA", I, len(shr.DATA))]
			}
		})
		core.GsumTo(p, LOCSUM, &shr.TOTAL)
		core.GmaxTo(p, LOCMAX, &shr.BIG)
		core.GsumTo(p, 1, &shr.HITS)
		p.BarrierSection(func() {
			shr.RESULT.Produce(shr.TOTAL)
		})
		if ME == 0 {
			LOCSUM = shr.RESULT.Consume()
			zzPrintln("sum of squares =", LOCSUM)
			zzPrintln("largest element =", shr.BIG)
			zzPrintln("processes contributing:", shr.HITS)
		}
	})
}
