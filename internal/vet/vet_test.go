package vet

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/forcelang"
)

func analyzeSrc(t *testing.T, src string) []Diagnostic {
	t.Helper()
	prog, err := forcelang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	diags, err := Analyze(prog)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return diags
}

// codeLines renders diagnostics as "CODE@line" for compact golden
// comparison.
func codeLines(diags []Diagnostic) string {
	parts := make([]string, len(diags))
	for i, d := range diags {
		parts[i] = fmt.Sprintf("%s@%d", d.Code, d.Line)
	}
	return strings.Join(parts, " ")
}

// TestNonUniformCorpus pins the exact code and line forcevet reports for
// every program in the PR-4 non-uniform abort corpus: each one must be
// caught statically, at the faulting (or protocol-breaking) statement.
func TestNonUniformCorpus(t *testing.T) {
	want := map[string]string{
		"before-a-barrier":              "FV002@5",
		"inside-critical":               "FV002@7",
		"inside-doall-body":             "FV002@7",
		"peer-waits-in-askfor":          "FV002@5",
		"consume-never-produced":        "FV201@6 FV002@9",
		"reduction-missing-contributor": "FV002@6",
	}
	for _, p := range corpus.NonUniform {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			got := codeLines(analyzeSrc(t, p.Src))
			if got != want[p.Name] {
				t.Errorf("diagnostics = %q, want %q", got, want[p.Name])
			}
		})
	}
}

// TestRuntimeErrorCorpus pins the uniform-path fault warnings for the
// PR-4 uniform fault corpus.
func TestRuntimeErrorCorpus(t *testing.T) {
	want := map[string]string{
		"subscript":     "FV003@4",
		"subscript-2d":  "FV003@6",
		"div-zero":      "FV003@4",
		"sqrt-negative": "FV003@4",
		"mod-zero":      "FV003@4",
		"zero-step":     "FV003@4",
		"async-bounds":  "FV003@4",
	}
	for _, p := range corpus.RuntimeErrors {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			got := codeLines(analyzeSrc(t, p.Src))
			if got != want[p.Name] {
				t.Errorf("diagnostics = %q, want %q", got, want[p.Name])
			}
		})
	}
}

// TestCleanCorpus: the equivalence corpus, the chunk matrix and the
// fusion matrix are correct programs — forcevet must stay silent on
// every one (zero false positives).
func TestCleanCorpus(t *testing.T) {
	for _, fam := range []struct {
		name  string
		progs []corpus.Program
	}{{"equiv", corpus.Equiv}, {"chunk", corpus.Chunk}, {"fusion", corpus.Fusion}} {
		for _, p := range fam.progs {
			p := p
			t.Run(fam.name+"/"+p.Name, func(t *testing.T) {
				if diags := analyzeSrc(t, p.Src); len(diags) != 0 {
					t.Errorf("unexpected diagnostics:\n%s", renderAll(diags))
				}
			})
		}
	}
}

// TestCleanExamples: every .force source shipped in examples/ must be
// diagnostic-free.
func TestCleanExamples(t *testing.T) {
	paths, err := filepath.Glob("../../examples/*/*.force")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example sources found: %v", err)
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if diags := analyzeSrc(t, string(src)); len(diags) != 0 {
				t.Errorf("unexpected diagnostics:\n%s", renderAll(diags))
			}
		})
	}
}

func renderAll(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return b.String()
}

// --- FV001: collective consistency ------------------------------------

func TestFV001BarrierUnderVaryingBranch(t *testing.T) {
	diags := analyzeSrc(t, `Force T of NP ident ME
End Declarations
IF (ME .EQ. 0) THEN
Barrier
End Barrier
END IF
Join
`)
	if got := codeLines(diags); got != "FV001@4" {
		t.Errorf("got %q, want FV001@4\n%s", got, renderAll(diags))
	}
	if diags[0].Sev != Error {
		t.Error("FV001 must be an error")
	}
	if !strings.Contains(diags[0].Message, "Barrier") {
		t.Errorf("message should name the construct: %s", diags[0].Message)
	}
}

func TestFV001ReductionUnderVaryingBranch(t *testing.T) {
	diags := analyzeSrc(t, `Force T of NP ident ME
Shared Integer S
End Declarations
IF (ME .GT. 0) THEN
GSUM S = ME
END IF
Join
`)
	if got := codeLines(diags); got != "FV001@5" {
		t.Errorf("got %q, want FV001@5\n%s", got, renderAll(diags))
	}
	if !strings.Contains(diags[0].Message, "GSUM") {
		t.Errorf("message should name the operator: %s", diags[0].Message)
	}
}

func TestFV001DoallUnderVaryingWhile(t *testing.T) {
	// The varying condition flows through an assignment chain first.
	diags := analyzeSrc(t, `Force T of NP ident ME
Shared Real A(10)
Private Integer I, K
End Declarations
K = ME + 1
IF (K .GT. 1) THEN
Presched DO I = 1, 10
A(I) = 1.0
End Presched DO
END IF
Join
`)
	if got := codeLines(diags); got != "FV001@7" {
		t.Errorf("got %q, want FV001@7\n%s", got, renderAll(diags))
	}
}

func TestFV001ThroughCall(t *testing.T) {
	// The collective hides inside a subroutine; the call site under the
	// varying branch is flagged.
	diags := analyzeSrc(t, `Force T of NP ident ME
Shared Integer S
End Declarations
IF (ME .EQ. 0) THEN
Call SYNC()
END IF
Join
Forcesub SYNC()
End Declarations
Barrier
End Barrier
Endsub
`)
	if got := codeLines(diags); got != "FV001@5" {
		t.Errorf("got %q, want FV001@5\n%s", got, renderAll(diags))
	}
	if !strings.Contains(diags[0].Message, "call site") {
		t.Errorf("message should mention the call site: %s", diags[0].Message)
	}
}

func TestFV001VaryingFromConsume(t *testing.T) {
	// A consumed value is varying: each process may read a different
	// cell state, so a collective guarded by it is inconsistent.
	diags := analyzeSrc(t, `Force T of NP ident ME
Async Integer V
Private Integer I
End Declarations
Produce V = 1
Consume V into I
IF (I .EQ. 1) THEN
Barrier
End Barrier
END IF
Join
`)
	if got := codeLines(diags); got != "FV001@8" {
		t.Errorf("got %q, want FV001@8\n%s", got, renderAll(diags))
	}
}

func TestFV001UniformGuardIsClean(t *testing.T) {
	// A collective under a branch on uniform shared data is fine.
	diags := analyzeSrc(t, `Force T of NP ident ME
Shared Integer N
Shared Real A(10)
Private Integer I
End Declarations
Barrier
N = 5
End Barrier
IF (N .GT. 0) THEN
Presched DO I = 1, 10
A(I) = 1.0
End Presched DO
END IF
Join
`)
	if len(diags) != 0 {
		t.Errorf("uniform guard should be clean:\n%s", renderAll(diags))
	}
}

// --- FV002/FV003 details ----------------------------------------------

func TestFV002LoopRangeWitness(t *testing.T) {
	// The divisor hits zero at I = 7 within the loop's range.
	diags := analyzeSrc(t, `Force T of NP ident ME
Private Integer I, K
End Declarations
IF (ME .EQ. 0) THEN
DO I = 1, 10
K = 100 / (I - 7)
End DO
END IF
Join
`)
	if got := codeLines(diags); got != "FV002@6" {
		t.Errorf("got %q, want FV002@6\n%s", got, renderAll(diags))
	}
	if !strings.Contains(diags[0].Message, "I = 7") {
		t.Errorf("message should name the witness: %s", diags[0].Message)
	}
}

func TestFV002StrideMissesZero(t *testing.T) {
	// I runs 1,3,...,9: never 7±0 divisor zero? (I-7) = 0 at I=7 which
	// the stride does hit; (I-8) = 0 at I=8 which it does not.
	diags := analyzeSrc(t, `Force T of NP ident ME
Private Integer I, K
End Declarations
IF (ME .EQ. 0) THEN
DO I = 1, 9, 2
K = 100 / (I - 8)
End DO
END IF
Join
`)
	if len(diags) != 0 {
		t.Errorf("stride 2 never reaches I=8, should be clean:\n%s", renderAll(diags))
	}
}

func TestFV003RealDivisionNeverFaults(t *testing.T) {
	diags := analyzeSrc(t, `Force T of NP ident ME
Private Real X
End Declarations
X = 1.0 / 0.0
Join
`)
	if len(diags) != 0 {
		t.Errorf("real division follows IEEE semantics, no fault:\n%s", renderAll(diags))
	}
}

// --- FV101: shared-memory races ---------------------------------------

func TestFV101SharedScalarInDoall(t *testing.T) {
	diags := analyzeSrc(t, `Force T of NP ident ME
Shared Real S
Private Integer I
End Declarations
Presched DO I = 1, 10
S = S + 1.0
End Presched DO
Join
`)
	if got := codeLines(diags); got != "FV101@6" {
		t.Errorf("got %q, want FV101@6\n%s", got, renderAll(diags))
	}
	if diags[0].Sev != Warning {
		t.Error("FV101 is a warning")
	}
}

func TestFV101CriticalMakesItClean(t *testing.T) {
	diags := analyzeSrc(t, `Force T of NP ident ME
Shared Real S
Private Integer I
End Declarations
Presched DO I = 1, 10
Critical L
S = S + 1.0
End Critical
End Presched DO
Join
`)
	if len(diags) != 0 {
		t.Errorf("single-critical access should be clean:\n%s", renderAll(diags))
	}
}

func TestFV101TwoDifferentCriticals(t *testing.T) {
	// Two different locks exclude nothing.
	diags := analyzeSrc(t, `Force T of NP ident ME
Shared Real S
Private Integer I
End Declarations
Presched DO I = 1, 10
IF (I .GT. 5) THEN
Critical L1
S = S + 1.0
End Critical
ELSE
Critical L2
S = S + 1.0
End Critical
END IF
End Presched DO
Join
`)
	if got := codeLines(diags); got != "FV101@8" {
		t.Errorf("got %q, want FV101@8\n%s", got, renderAll(diags))
	}
}

func TestFV101IntAccumulatorIsClean(t *testing.T) {
	// The chunk tier folds pure integer accumulators deterministically.
	diags := analyzeSrc(t, `Force T of NP ident ME
Shared Integer S
Private Integer I
End Declarations
Selfsched DO I = 1, 100
S = S + I
End Selfsched DO
Join
`)
	if len(diags) != 0 {
		t.Errorf("integer accumulator should be clean:\n%s", renderAll(diags))
	}
}

func TestFV101DisjointArrayIsClean(t *testing.T) {
	diags := analyzeSrc(t, `Force T of NP ident ME
Shared Real A(11)
Private Integer I
End Declarations
Presched DO I = 1, 10
A(I + 1) = REAL(I)
End Presched DO
Join
`)
	if len(diags) != 0 {
		t.Errorf("A(I+1) is injective, should be clean:\n%s", renderAll(diags))
	}
}

func TestFV101OverlappingArrayForms(t *testing.T) {
	// A(I) and A(I+1) collide across iterations.
	diags := analyzeSrc(t, `Force T of NP ident ME
Shared Real A(11)
Private Integer I
End Declarations
Presched DO I = 1, 10
A(I + 1) = A(I) + 1.0
End Presched DO
Join
`)
	if got := codeLines(diags); got != "FV101@6" {
		t.Errorf("got %q, want FV101@6\n%s", got, renderAll(diags))
	}
}

// TestFV101RowDisjointIsClean is the dense matrix-product shape: every
// access to C, A and B inside the one-index DOALL keeps I in the first
// subscript, while the second is a sequential DO index.  Row I belongs
// to iteration I alone, so nothing races.
func TestFV101RowDisjointIsClean(t *testing.T) {
	diags := analyzeSrc(t, `Force T of NP ident ME
Shared Real A(8, 8), B(8, 8), C(8, 8)
Private Integer I, J, K
Private Real S
End Declarations
Presched DO I = 1, 8
  DO J = 1, 8
    A(I, J) = REAL(I + J)
    B(I, J) = REAL(I - J)
  End DO
End Presched DO
Presched DO I = 1, 8
  DO J = 1, 8
    S = 0.0
    DO K = 1, 8
      S = S + A(I, K) * B(I, K)
    End DO
    C(I, J) = S
  End DO
End Presched DO
Join
`)
	if len(diags) != 0 {
		t.Errorf("row-disjoint accesses should be clean:\n%s", renderAll(diags))
	}
}

// TestFV101RowDisjointNegatives: no subscript position with one form
// and a nonzero index coefficient means no proof.  A(I,J) mixed with
// A(J,I) reads row J, which another iteration writes; A(MOD(I,2)+1,J)
// folds every iteration onto two rows.
func TestFV101RowDisjointNegatives(t *testing.T) {
	for name, body := range map[string]string{
		"transposed": "A(I, J) = A(J, I) + 1.0",
		"non-affine": "A(MOD(I, 2) + 1, J) = REAL(I)",
	} {
		t.Run(name, func(t *testing.T) {
			diags := analyzeSrc(t, `Force T of NP ident ME
Shared Real A(8, 8)
Private Integer I, J
End Declarations
Presched DO I = 1, 8
  DO J = 1, 8
    `+body+`
  End DO
End Presched DO
Join
`)
			if got := codeLines(diags); got != "FV101@7" {
				t.Errorf("got %q, want FV101@7\n%s", got, renderAll(diags))
			}
		})
	}
}

func TestFV101AskforBody(t *testing.T) {
	diags := analyzeSrc(t, `Force T of NP ident ME
Shared Real S
Private Integer W
End Declarations
Askfor W = 3
S = S + REAL(W)
End Askfor
Join
`)
	if got := codeLines(diags); got != "FV101@6" {
		t.Errorf("got %q, want FV101@6\n%s", got, renderAll(diags))
	}
}

func TestFV101PcaseCrossBlock(t *testing.T) {
	diags := analyzeSrc(t, `Force T of NP ident ME
Shared Integer S
End Declarations
Pcase
Usect
S = 1
Usect
S = 2
End Pcase
Join
`)
	if got := codeLines(diags); got != "FV101@6" {
		t.Errorf("got %q, want FV101@6\n%s", got, renderAll(diags))
	}
}

// --- FV102: replicated force-level stores ------------------------------

func TestFV102VaryingStore(t *testing.T) {
	diags := analyzeSrc(t, `Force T of NP ident ME
Shared Integer S
End Declarations
S = ME
Join
`)
	if got := codeLines(diags); got != "FV102@4" {
		t.Errorf("got %q, want FV102@4\n%s", got, renderAll(diags))
	}
}

func TestFV102ReadModifyWrite(t *testing.T) {
	diags := analyzeSrc(t, `Force T of NP ident ME
Shared Integer S
End Declarations
S = S + 1
Join
`)
	if got := codeLines(diags); got != "FV102@4" {
		t.Errorf("got %q, want FV102@4\n%s", got, renderAll(diags))
	}
	if !strings.Contains(diags[0].Message, "read-modify-write") {
		t.Errorf("message should say read-modify-write: %s", diags[0].Message)
	}
}

func TestFV102UniformInitIsClean(t *testing.T) {
	// Idempotent replicated initialization is the dialect's idiom.
	diags := analyzeSrc(t, `Force T of NP ident ME
Shared Integer S
Shared Real A(4)
End Declarations
S = 0
A(1) = 0.0
Join
`)
	if len(diags) != 0 {
		t.Errorf("uniform stores are clean:\n%s", renderAll(diags))
	}
}

func TestFV102PerProcessElementIsClean(t *testing.T) {
	// A(ME+1): each process owns its element.
	diags := analyzeSrc(t, `Force T of NP ident ME
Shared Real A(64)
End Declarations
A(ME + 1) = REAL(ME)
Join
`)
	if len(diags) != 0 {
		t.Errorf("per-process element stores are clean:\n%s", renderAll(diags))
	}
}

// --- FV201/FV202: asyncvar protocol ------------------------------------

func TestFV201CopyNeverProduced(t *testing.T) {
	diags := analyzeSrc(t, `Force T of NP ident ME
Async Real V
Private Real X
End Declarations
Copy V into X
Join
`)
	if got := codeLines(diags); got != "FV201@5" {
		t.Errorf("got %q, want FV201@5\n%s", got, renderAll(diags))
	}
	if !strings.Contains(diags[0].Message, "Copy") {
		t.Errorf("message should name the operation: %s", diags[0].Message)
	}
}

func TestFV201ProducedInSubIsClean(t *testing.T) {
	// The Produce lives in a subroutine: whole-program analysis finds it.
	diags := analyzeSrc(t, `Force T of NP ident ME
Async Integer V
Private Integer I
End Declarations
Call FILL()
Consume V into I
Join
Forcesub FILL()
End Declarations
Barrier
Produce V = 7
End Barrier
Endsub
`)
	if len(diags) != 0 {
		t.Errorf("V is produced in FILL, should be clean:\n%s", renderAll(diags))
	}
}

func TestFV202DoubleProduce(t *testing.T) {
	diags := analyzeSrc(t, `Force T of NP ident ME
Async Integer V
End Declarations
IF (ME .EQ. 0) THEN
Produce V = 1
Produce V = 2
END IF
Join
`)
	if got := codeLines(diags); got != "FV202@6" {
		t.Errorf("got %q, want FV202@6\n%s", got, renderAll(diags))
	}
}

func TestFV202VoidBetweenIsClean(t *testing.T) {
	diags := analyzeSrc(t, `Force T of NP ident ME
Async Integer V
Private Integer I
End Declarations
IF (ME .EQ. 0) THEN
Produce V = 1
Consume V into I
Produce V = 2
Void V
END IF
Join
`)
	if len(diags) != 0 {
		t.Errorf("consume between produces, should be clean:\n%s", renderAll(diags))
	}
}

func TestFV202DistinctElements(t *testing.T) {
	// Different canonical subscripts are different cells.
	diags := analyzeSrc(t, `Force T of NP ident ME
Async Integer C(4)
End Declarations
IF (ME .EQ. 0) THEN
Produce C(1) = 1
Produce C(2) = 2
END IF
Join
`)
	if len(diags) != 0 {
		t.Errorf("distinct elements, should be clean:\n%s", renderAll(diags))
	}
}

// --- Explain ------------------------------------------------------------

func TestExplainCoversEveryReportedCode(t *testing.T) {
	for _, code := range []string{"FV001", "FV002", "FV003", "FV101", "FV102", "FV201", "FV202"} {
		text := Explain(code)
		if text == "" {
			t.Errorf("no explanation for %s", code)
			continue
		}
		if !strings.HasPrefix(text, code+":") {
			t.Errorf("%s explanation should lead with its code", code)
		}
	}
	if Explain("fv001") == "" {
		t.Error("codes should match case-insensitively")
	}
	if Explain("FV999") != "" {
		t.Error("unknown codes return empty")
	}
	if len(Codes()) != 7 {
		t.Errorf("Codes() = %v, want 7 entries", Codes())
	}
}

// TestDiagnosticString pins the canonical rendering integration layers
// rely on.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Code: "FV001", Sev: Error, Line: 5, Message: "collective Barrier reachable under non-uniform condition"}
	want := "line 5: FV001 error: collective Barrier reachable under non-uniform condition"
	if d.String() != want {
		t.Errorf("String() = %q, want %q", d.String(), want)
	}
}
