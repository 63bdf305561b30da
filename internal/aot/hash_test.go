package aot

import (
	"testing"

	"repro/internal/barrier"
	"repro/internal/engine"
	"repro/internal/forcelang"
	"repro/internal/reduce"
	"repro/internal/sched"
)

const hashBase = `Force H of NP ident ME
Shared Integer S
Shared Real A(8)
Private Integer I
End Declarations
Presched DO I = 1, 8
  A(I) = REAL(I)
End Presched DO
Barrier
  S = 1
End Barrier
Join
`

// TestKeyInsensitiveToLayout: whitespace, comments, blank lines and
// declaration order are not semantics — programs differing only in them
// must share one cache entry.
func TestKeyInsensitiveToLayout(t *testing.T) {
	reformatted := `Force H of NP ident ME
! layout-only differences: comments, blank lines, decl order

Private Integer I
Shared Real A(8)
Shared Integer S
End Declarations

Presched DO I = 1, 8
  A(I) = REAL(I)   ! fill
End Presched DO

Barrier
  S = 1
End Barrier
Join
`
	a := Key(forcelang.MustParse(hashBase), Options{})
	b := Key(forcelang.MustParse(reformatted), Options{})
	if a != b {
		t.Errorf("layout-only variant changed the key:\n%s\n%s", a, b)
	}
}

// TestKeySensitiveToSemantics: a changed literal, bound, or statement
// must fork the key.
func TestKeySensitiveToSemantics(t *testing.T) {
	base := Key(forcelang.MustParse(hashBase), Options{})
	variants := map[string]string{
		"literal": `Force H of NP ident ME
Shared Integer S
Shared Real A(8)
Private Integer I
End Declarations
Presched DO I = 1, 8
  A(I) = REAL(I)
End Presched DO
Barrier
  S = 2
End Barrier
Join
`,
		"bound": `Force H of NP ident ME
Shared Integer S
Shared Real A(8)
Private Integer I
End Declarations
Presched DO I = 1, 7
  A(I) = REAL(I)
End Presched DO
Barrier
  S = 1
End Barrier
Join
`,
		"sched": `Force H of NP ident ME
Shared Integer S
Shared Real A(8)
Private Integer I
End Declarations
Selfsched DO I = 1, 8
  A(I) = REAL(I)
End Selfsched DO
Barrier
  S = 1
End Barrier
Join
`,
		"dim": `Force H of NP ident ME
Shared Integer S
Shared Real A(9)
Private Integer I
End Declarations
Presched DO I = 1, 8
  A(I) = REAL(I)
End Presched DO
Barrier
  S = 1
End Barrier
Join
`,
	}
	for name, src := range variants {
		if got := Key(forcelang.MustParse(src), Options{}); got == base {
			t.Errorf("%s change did not change the key", name)
		}
	}
}

// TestKeySensitiveToOptions: every semantics-affecting option forks the
// key; defaults and their explicit spellings do not.
func TestKeySensitiveToOptions(t *testing.T) {
	prog := forcelang.MustParse(hashBase)
	base := Key(prog, Options{})

	if got := Key(prog, Options{Selfsched: sched.DefaultSelfsched, Reduce: reduce.PrivateSlots,
		Barrier: barrier.TwoLock, Askfor: engine.StealingPool}); got != base {
		t.Error("explicit defaults changed the key")
	}
	diff := map[string]Options{
		"barrier":   {Barrier: barrier.Dissemination},
		"reduce":    {Reduce: reduce.Critical},
		"selfsched": {Selfsched: sched.Stealing},
		// A binary built for the paper's lock discipline is never served
		// for an unset option.
		"selfsched-lock": {Selfsched: sched.SelfLock},
		"askfor":         {Askfor: engine.MonitorPool},
		"chunk":          {Chunk: 64},
	}
	for name, opts := range diff {
		if got := Key(prog, opts); got == base {
			t.Errorf("option %s did not change the key", name)
		}
	}
}

// TestKeyFormatVersion: the format version is part of the key, and it
// is at 3, the bump that retires binaries linked against the runtime
// whose asynchronous variables and Askfor pool predate poison.Await.
// A warm cache must not serve those for an unchanged program.
func TestKeyFormatVersion(t *testing.T) {
	if formatVersion != 3 {
		t.Fatalf("formatVersion = %d, want 3", formatVersion)
	}
	prog := forcelang.MustParse(hashBase)
	if Key(prog, Options{}) == keyAt(2, prog, Options{}) {
		t.Error("a version-2 key is still served for an unchanged program")
	}
	if Key(prog, Options{}) != keyAt(formatVersion, prog, Options{}) {
		t.Error("Key does not hash the current format version")
	}
}
