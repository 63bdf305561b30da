package machine

import (
	"testing"
	"time"

	"repro/internal/asyncvar"
	"repro/internal/lock"
	"repro/internal/shm"
)

func TestAllProfilesWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range All() {
		if p.Name == "" || p.Description == "" {
			t.Errorf("profile %+v missing name or description", p)
		}
		if seen[p.Name] {
			t.Errorf("duplicate profile name %q", p.Name)
		}
		seen[p.Name] = true
		if p.PageSize <= 0 {
			t.Errorf("%s: page size %d", p.Name, p.PageSize)
		}
		if p.CreationCost < 0 {
			t.Errorf("%s: negative creation cost", p.Name)
		}
	}
	if len(All()) != 7 {
		t.Errorf("All() has %d profiles, want 7 (six machines + native)", len(All()))
	}
	if len(Historical()) != 6 {
		t.Errorf("Historical() has %d profiles, want the paper's six", len(Historical()))
	}
	for _, p := range Historical() {
		if p.Name == "native" {
			t.Error("Historical() contains native")
		}
	}
}

func TestByName(t *testing.T) {
	for _, p := range All() {
		got, err := ByName(p.Name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", p.Name, err)
		}
		if got.Name != p.Name {
			t.Errorf("ByName(%q).Name = %q", p.Name, got.Name)
		}
	}
	if _, err := ByName("vax"); err == nil {
		t.Error("ByName(vax) succeeded")
	}
}

func TestPaperAssignments(t *testing.T) {
	// §4.1.3 lock categories.
	if Sequent.Lock != lock.TAS || Encore.Lock != lock.TAS {
		t.Error("Sequent/Encore must use test&set software locks")
	}
	if Cray2.Lock != lock.System {
		t.Error("Cray-2 must use system call locks")
	}
	if Flex32.Lock != lock.Combined {
		t.Error("Flex/32 must use combined locks")
	}
	// §4.2: only the HEP has hardware full/empty.
	for _, p := range Historical() {
		wantFullEmpty := p.Name == "hep"
		if (p.Async == asyncvar.FullEmpty) != wantFullEmpty {
			t.Errorf("%s: async impl %v", p.Name, p.Async)
		}
	}
	// §4.1.2 sharing mechanisms.
	if HEP.ShmPolicy != shm.CompileTime || Flex32.ShmPolicy != shm.CompileTime {
		t.Error("HEP and Flex/32 share at compile time")
	}
	if Sequent.ShmPolicy != shm.LinkTime {
		t.Error("Sequent shares at link time")
	}
	if Encore.ShmPolicy != shm.RunTimePadded {
		t.Error("Encore shares at run time with padding")
	}
	if Alliant.ShmPolicy != shm.RunTimePageStart {
		t.Error("Alliant sharing must start at a page boundary")
	}
	// §4.1.1 creation models.
	if HEP.Creation != CreateCall {
		t.Error("HEP creates processes by subroutine call")
	}
	if Encore.Creation != ForkCopy || Sequent.Creation != ForkCopy {
		t.Error("Encore and Sequent use the UNIX fork/join model")
	}
	if Alliant.Creation != ForkSharedData {
		t.Error("Alliant uses the shared-data fork variation")
	}
	// Paper's cost ordering: fork-copy ≫ shared-data fork ≫ create-call.
	if !(Encore.CreationCost > Alliant.CreationCost && Alliant.CreationCost > HEP.CreationCost) {
		t.Error("creation costs do not preserve the paper's ordering")
	}
	if !Cray2.ScarceLocks {
		t.Error("Cray-2 locks are a scarce resource in the paper")
	}
}

func TestCreationModelString(t *testing.T) {
	cases := map[CreationModel]string{
		ForkCopy:       "fork-copy",
		ForkSharedData: "fork-shared-data",
		CreateCall:     "create-call",
	}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(m), got, want)
		}
	}
	if got := CreationModel(9).String(); got != "machine.CreationModel(9)" {
		t.Errorf("unknown model String() = %q", got)
	}
}

func TestLockFactoryProducesMachineKind(t *testing.T) {
	l := Cray2.NewLock()
	if _, ok := l.(*lock.SystemLock); !ok {
		t.Errorf("Cray2.NewLock() = %T, want *lock.SystemLock", l)
	}
	f := Sequent.LockFactory()
	if _, ok := f().(*lock.TASLock); !ok {
		t.Error("Sequent.LockFactory() does not produce TAS locks")
	}
}

func TestNewArena(t *testing.T) {
	a := Encore.NewArena(100)
	if a.Policy() != shm.RunTimePadded || a.PageSize() != 4096 {
		t.Errorf("Encore arena: policy %v page %d", a.Policy(), a.PageSize())
	}
}

func TestNewAsyncRoundTrips(t *testing.T) {
	for _, p := range All() {
		v := NewAsync[int](p)
		v.Produce(13)
		if got := v.Consume(); got != 13 {
			t.Errorf("%s: async round trip = %d", p.Name, got)
		}
	}
}

func TestPayCreationCost(t *testing.T) {
	start := time.Now()
	Native.PayCreationCost() // zero cost: returns immediately
	if elapsed := time.Since(start); elapsed > 10*time.Millisecond {
		t.Errorf("zero-cost creation took %v", elapsed)
	}
	p := Profile{CreationCost: 200 * time.Microsecond}
	start = time.Now()
	p.PayCreationCost()
	if elapsed := time.Since(start); elapsed < 200*time.Microsecond {
		t.Errorf("creation cost %v paid in %v", p.CreationCost, elapsed)
	}
}
