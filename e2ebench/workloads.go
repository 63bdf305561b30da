package main

// workloads.go — the seeded Force programs and their sequential Go
// references: three workloads and the large program of the front-end
// probe.  Each generator draws everything it varies from the seed,
// but keeps the amount of work within a percent or two of a fixed size,
// so that timings from different seeds are comparable.  The program
// receives only the generated text; the reference recomputes its Print
// lines by hand-written Go, without any of the repository's packages.

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
)

// workload is one generated program plus its oracle.
type workload struct {
	name string
	src  string
	// expect returns the Print lines the program must produce at np
	// processes, computed by the sequential reference.
	expect func(np int) string
	// hops is the number of asyncvar handoff rounds each process runs;
	// a run at np makes hops×np Produce→Consume handoffs.  Core's Stats
	// do not count them, so the workload states them for the
	// synchronization estimate.
	hops int
}

var generators = map[string]func(*rand.Rand) *workload{
	"stencil": genStencil,
	"dense":   genDense,
	"tasks":   genTasks,
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"stencil", "dense", "tasks"}

// realLit renders a Go float64 as a Force REAL literal.
func realLit(x float64) string { return strconv.FormatFloat(x, 'f', 1, 64) }

// fmtReal renders a REAL the way Force's Print does: shortest %g, with
// ".0" appended when the result would read as an integer.
func fmtReal(r float64) string {
	s := fmt.Sprintf("%g", r)
	if !strings.ContainsAny(s, ".eE") && !math.IsInf(r, 0) && !math.IsNaN(r) {
		s += ".0"
	}
	return s
}

// genStencil is the Jacobi relaxation of examples/forcefile/heat.force
// on a 256-cell rod for a fixed number of sweeps.  Each sweep is two
// Selfsched DOALLs and a GMAX, a handful of flops per synchronization.
// Every cell is computed from the same inputs at any np and GMAX is
// order-free, so the output is exact.
func genStencil(rng *rand.Rand) *workload {
	const n = 256
	sweeps := 995 + rng.Intn(11)
	left := float64(50 + rng.Intn(101))
	right := float64(rng.Intn(51))
	a, b := 1+rng.Intn(96), rng.Intn(100)
	probes := []int{2 + rng.Intn(n/3), n/3 + rng.Intn(n/3), 2*n/3 + rng.Intn(n/3-1)}

	var s strings.Builder
	fmt.Fprintf(&s, `Force HEAT of NP ident ME
Shared Real T(%[1]d), TNEW(%[1]d)
Shared Real DIFF
Private Integer I, K
Private Real D, DMINE, S
End Declarations
Presched DO I = 1, %[1]d
  T(I) = REAL(MOD(I * %[2]d + %[3]d, 100))
  TNEW(I) = T(I)
End Presched DO
Barrier
  T(1) = %[4]s
  TNEW(1) = %[4]s
  T(%[1]d) = %[5]s
  TNEW(%[1]d) = %[5]s
End Barrier
DO K = 1, %[6]d
  Selfsched DO I = 2, %[7]d
    TNEW(I) = (T(I - 1) + T(I + 1)) / 2.0
  End Selfsched DO
  DMINE = 0.0
  Selfsched DO I = 2, %[7]d
    D = ABS(TNEW(I) - T(I))
    IF (D .GT. DMINE) THEN
      DMINE = D
    End IF
    T(I) = TNEW(I)
  End Selfsched DO
  GMAX DIFF = DMINE
End DO
Barrier
  S = 0.0
  DO I = 1, %[1]d
    S = S + T(I)
  End DO
  Print 'sweeps', %[6]d, 'residual', DIFF
  Print 'sum', S
`, n, a, b, realLit(left), realLit(right), sweeps, n-1)
	for _, p := range probes {
		fmt.Fprintf(&s, "  Print 'cell', %d, T(%d)\n", p, p)
	}
	s.WriteString("End Barrier\nJoin\n")

	expect := func(int) string {
		t := make([]float64, n+1)
		tn := make([]float64, n+1)
		for i := 1; i <= n; i++ {
			t[i] = float64((i*a + b) % 100)
			tn[i] = t[i]
		}
		t[1], tn[1], t[n], tn[n] = left, left, right, right
		var diff float64
		for k := 0; k < sweeps; k++ {
			for i := 2; i < n; i++ {
				tn[i] = (t[i-1] + t[i+1]) / 2.0
			}
			diff = 0
			for i := 2; i < n; i++ {
				diff = math.Max(diff, math.Abs(tn[i]-t[i]))
				t[i] = tn[i]
			}
		}
		sum := 0.0
		for i := 1; i <= n; i++ {
			sum += t[i]
		}
		var out strings.Builder
		fmt.Fprintf(&out, "sweeps %d residual %s\nsum %s\n", sweeps, fmtReal(diff), fmtReal(sum))
		for _, p := range probes {
			fmt.Fprintf(&out, "cell %d %s\n", p, fmtReal(t[p]))
		}
		return out.String()
	}
	return &workload{name: "stencil", src: s.String(), expect: expect}
}

// genDense is an N×N matrix product: rows Presched, inner DO loops over
// the striped store, one GSUM checksum.  Each C(I,J) sums in the same
// order at any np, so the probed elements are exact; the checksum folds
// per-process partials in pid order and so differs in its last digits
// between np values.
func genDense(rng *rand.Rand) *workload {
	const n = 112
	a1, a2, c1 := 1+rng.Intn(16), 1+rng.Intn(16), rng.Intn(17)
	b1, b2, c2 := 1+rng.Intn(12), 1+rng.Intn(12), rng.Intn(13)
	type cell struct{ i, j int }
	probes := []cell{{1 + rng.Intn(n), 1 + rng.Intn(n)}, {1 + rng.Intn(n), 1 + rng.Intn(n)}, {1 + rng.Intn(n), 1 + rng.Intn(n)}}

	var s strings.Builder
	fmt.Fprintf(&s, `Force MATMUL of NP ident ME
Shared Real A(%[1]d, %[1]d), B(%[1]d, %[1]d), C(%[1]d, %[1]d)
Shared Real TOTAL
Private Integer I, J, K
Private Real S, MINE
End Declarations
Presched DO I = 1, %[1]d
  DO J = 1, %[1]d
    A(I, J) = REAL(MOD(I * %[2]d + J * %[3]d + %[4]d, 17)) / 7.0 - 1.0
    B(I, J) = REAL(MOD(I * %[5]d + J * %[6]d + %[7]d, 13)) / 4.0 - 1.5
  End DO
End Presched DO
MINE = 0.0
Presched DO I = 1, %[1]d
  DO J = 1, %[1]d
    S = 0.0
    DO K = 1, %[1]d
      S = S + A(I, K) * B(K, J)
    End DO
    C(I, J) = S
    MINE = MINE + S
  End DO
End Presched DO
GSUM TOTAL = MINE
Barrier
  Print 'checksum', TOTAL
`, n, a1, a2, c1, b1, b2, c2)
	for _, p := range probes {
		fmt.Fprintf(&s, "  Print 'C', %d, %d, C(%d, %d)\n", p.i, p.j, p.i, p.j)
	}
	s.WriteString("End Barrier\nJoin\n")

	expect := func(int) string {
		am := make([][]float64, n+1)
		bm := make([][]float64, n+1)
		for i := 1; i <= n; i++ {
			am[i] = make([]float64, n+1)
			bm[i] = make([]float64, n+1)
			for j := 1; j <= n; j++ {
				am[i][j] = float64((i*a1+j*a2+c1)%17)/7.0 - 1.0
				bm[i][j] = float64((i*b1+j*b2+c2)%13)/4.0 - 1.5
			}
		}
		c := func(i, j int) float64 {
			s := 0.0
			for k := 1; k <= n; k++ {
				s = s + am[i][k]*bm[k][j]
			}
			return s
		}
		total := 0.0
		for i := 1; i <= n; i++ {
			for j := 1; j <= n; j++ {
				total += c(i, j)
			}
		}
		var out strings.Builder
		fmt.Fprintf(&out, "checksum %s\n", fmtReal(total))
		for _, p := range probes {
			fmt.Fprintf(&out, "C %d %d %s\n", p.i, p.j, fmtReal(c(p.i, p.j)))
		}
		return out.String()
	}
	return &workload{name: "dense", src: s.String(), expect: expect}
}

// genTasks is an Askfor binary task tree (heap-numbered nodes, each
// task spinning a seeded number of integer steps) followed by a
// Produce/Consume token ring over an Async array: every round each
// process consumes its own cell and produces its successor's.  The tree
// total is order-free; the ring value depends on np only through the
// number of hops, which the reference replays.
func genTasks(rng *rand.Rand) *workload {
	const (
		leaves = 1 << 16
		rounds = 40000
		ring   = 64 // Async cells; np is capped at this
	)
	wa, wb := 1+rng.Intn(97), rng.Intn(41)
	token := 1 + rng.Intn(1000)
	mul := 2 + rng.Intn(60)

	src := fmt.Sprintf(`Force TASKS of NP ident ME
Shared Integer TOTAL
Async Integer RING(%[1]d)
Private Integer T, J, V, S, X, R
End Declarations
S = 0
Askfor T = 1
  V = T
  DO J = 1, MOD(T * %[2]d + %[3]d, 41) + 1
    V = MOD(V * 31 + J, 1000003)
  End DO
  S = S + V
  IF (T .LT. %[4]d) THEN
    Put 2 * T
    Put 2 * T + 1
  End IF
End Askfor
GSUM TOTAL = S
IF (ME .EQ. 0) THEN
  Produce RING(1) = %[5]d
End IF
DO R = 1, %[6]d
  Consume RING(ME + 1) into X
  X = MOD(X * %[7]d + R, 1000003)
  IF (ME .EQ. NP - 1) THEN
    Produce RING(1) = X
  ELSE
    Produce RING(ME + 2) = X
  End IF
End DO
Barrier
End Barrier
IF (ME .EQ. 0) THEN
  Consume RING(1) into X
  Print 'tree', TOTAL
  Print 'ring', X
End IF
Join
`, ring, wa, wb, leaves, token, rounds, mul)

	expect := func(np int) string {
		total := 0
		for t := 1; t < 2*leaves; t++ {
			v := t
			for j := 1; j <= (t*wa+wb)%41+1; j++ {
				v = (v*31 + j) % 1000003
			}
			total += v
		}
		x := token
		for r := 1; r <= rounds; r++ {
			for p := 0; p < np; p++ {
				x = (x*mul + r) % 1000003
			}
		}
		return fmt.Sprintf("tree %d\nring %d\n", total, x)
	}
	return &workload{name: "tasks", src: src, expect: expect, hops: rounds}
}

// genFrontend is a large generated program: a main unit calling 300
// Forcesubs, each one of three seeded shapes (a DOALL pair with a GSUM,
// a sequential loop with an IF chain, a Selfsched DO with a Critical
// counter).  Execution is a few collectives per sub; the front end,
// vet, the interpreter's compiler and codegen are what it measures.
// It is the traced pass's front-end probe, not a workload: its run
// times are allocation-bound and drift with the host's memory load by
// more than any bound a workload could be held to.
func genFrontend(rng *rand.Rand) *workload {
	const (
		subs   = 300
		modulo = 1000003
		every  = 50 // a Print after every this many calls
	)
	var body strings.Builder
	var main strings.Builder
	main.WriteString("Force FRONT of NP ident ME\nShared Integer ACC\nEnd Declarations\n")
	// steps are the sub results in call order; ACC = MOD(ACC*3 + r, m).
	var steps []func() int
	// Each shape makes a third of the subs, in seeded order, so every
	// seed's program carries the same mix of front-end work.
	shapes := make([]int, subs)
	for k := range shapes {
		shapes[k] = k % 3
	}
	rng.Shuffle(subs, func(i, j int) { shapes[i], shapes[j] = shapes[j], shapes[i] })
	for k := 1; k <= subs; k++ {
		fmt.Fprintf(&body, "C generated subroutine %d\n", k)
		switch shapes[k-1] {
		case 0:
			n := 8 + rng.Intn(17)
			a, b, m := 1+rng.Intn(50), rng.Intn(50), 20+rng.Intn(80)
			t := rng.Intn(m)
			fmt.Fprintf(&body, `Forcesub F%[1]d(ACC)
Shared Integer ACC
Shared Integer W%[1]d(%[2]d)
Shared Integer G%[1]d
Private Integer I, P
End Declarations
Presched DO I = 1, %[2]d
  W%[1]d(I) = MOD(I * %[3]d + %[4]d, %[5]d)
End Presched DO
P = 0
Presched DO I = 1, %[2]d
  IF (W%[1]d(I) .GT. %[6]d) THEN
    P = P + W%[1]d(I)
  ELSE
    P = P + 1
  End IF
End Presched DO
GSUM G%[1]d = P
Barrier
  ACC = MOD(ACC * 3 + G%[1]d, %[7]d)
End Barrier
Endsub
`, k, n, a, b, m, t, modulo)
			steps = append(steps, func() int {
				g := 0
				for i := 1; i <= n; i++ {
					if w := (i*a + b) % m; w > t {
						g += w
					} else {
						g++
					}
				}
				return g
			})
		case 1:
			v0, n, c2, c3, c4 := 500+rng.Intn(500), 10+rng.Intn(30), 2+rng.Intn(5), 1+rng.Intn(9), 1+rng.Intn(20)
			c5 := 100 + rng.Intn(400)
			fmt.Fprintf(&body, `Forcesub F%[1]d(ACC)
Shared Integer ACC
Private Integer J, V
End Declarations
V = %[2]d
DO J = 1, %[3]d
  IF (MOD(J, %[4]d) .EQ. 0) THEN
    V = V + J * %[5]d
  ELSE
    IF (V .GT. %[7]d) THEN
      V = V - %[6]d
    End IF
  End IF
End DO
Barrier
  ACC = MOD(ACC * 3 + V, %[8]d)
End Barrier
Endsub
`, k, v0, n, c2, c3, c4, c5, modulo)
			steps = append(steps, func() int {
				v := v0
				for j := 1; j <= n; j++ {
					if j%c2 == 0 {
						v += j * c3
					} else if v > c5 {
						v -= c4
					}
				}
				return v
			})
		default:
			n := 8 + rng.Intn(25)
			r1 := float64(1+rng.Intn(9)) / 4.0
			r2 := float64(rng.Intn(9))
			r3 := float64(10 + rng.Intn(200))
			fmt.Fprintf(&body, `Forcesub F%[1]d(ACC)
Shared Integer ACC
Shared Real R%[1]d(%[2]d)
Shared Integer C%[1]d
Private Integer I
Private Real X
End Declarations
Barrier
  C%[1]d = 0
End Barrier
Selfsched DO I = 1, %[2]d
  X = REAL(I) * %[3]s - %[4]s
  R%[1]d(I) = X * X
  IF (R%[1]d(I) .GT. %[5]s) THEN
    Critical L%[1]d
      C%[1]d = C%[1]d + 1
    End Critical
  End IF
End Selfsched DO
Barrier
  ACC = MOD(ACC * 3 + C%[1]d, %[6]d)
End Barrier
Endsub
`, k, n, strconv.FormatFloat(r1, 'f', 2, 64), realLit(r2), realLit(r3), modulo)
			steps = append(steps, func() int {
				c := 0
				for i := 1; i <= n; i++ {
					x := float64(i)*r1 - r2
					if x*x > r3 {
						c++
					}
				}
				return c
			})
		}
		fmt.Fprintf(&main, "Call F%d(ACC)\n", k)
		if k%every == 0 {
			fmt.Fprintf(&main, "Barrier\n  Print 'acc', %d, ACC\nEnd Barrier\n", k)
		}
	}
	main.WriteString("Join\n")

	expect := func(int) string {
		var out strings.Builder
		acc := 0
		for k, step := range steps {
			acc = (acc*3 + step()) % modulo
			if (k+1)%every == 0 {
				fmt.Fprintf(&out, "acc %d %d\n", k+1, acc)
			}
		}
		return out.String()
	}
	return &workload{name: "frontend", src: main.String() + body.String(), expect: expect}
}
