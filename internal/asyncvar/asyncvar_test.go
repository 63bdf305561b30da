package asyncvar

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/lock"
	"repro/internal/poison"
)

func TestImplStringAndParse(t *testing.T) {
	for _, i := range Impls() {
		got, err := ParseImpl(i.String())
		if err != nil || got != i {
			t.Errorf("ParseImpl(%q) = %v, %v", i.String(), got, err)
		}
	}
	if _, err := ParseImpl("zzz"); err == nil {
		t.Error("ParseImpl(zzz) succeeded")
	}
	if got := Impl(9).String(); got != "asyncvar.Impl(9)" {
		t.Errorf("unknown impl String() = %q", got)
	}
}

func TestNewUnknownImplPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with unknown impl did not panic")
		}
	}()
	New[int](Impl(7), nil)
}

func TestStartsEmpty(t *testing.T) {
	for _, impl := range Impls() {
		v := New[int](impl, nil)
		if v.IsFull() {
			t.Errorf("%v: fresh variable is full", impl)
		}
	}
}

func TestProduceConsumeRoundTrip(t *testing.T) {
	for _, impl := range Impls() {
		v := New[string](impl, lock.Factory(lock.TTAS))
		v.Produce("hello")
		if !v.IsFull() {
			t.Errorf("%v: not full after Produce", impl)
		}
		if got := v.Consume(); got != "hello" {
			t.Errorf("%v: Consume = %q, want hello", impl, got)
		}
		if v.IsFull() {
			t.Errorf("%v: full after Consume", impl)
		}
	}
}

func TestCopyLeavesFull(t *testing.T) {
	for _, impl := range Impls() {
		v := New[int](impl, nil)
		v.Produce(42)
		if got := v.Copy(); got != 42 {
			t.Errorf("%v: Copy = %d, want 42", impl, got)
		}
		if !v.IsFull() {
			t.Errorf("%v: Copy emptied the variable", impl)
		}
		if got := v.Consume(); got != 42 {
			t.Errorf("%v: Consume after Copy = %d, want 42", impl, got)
		}
	}
}

func TestVoid(t *testing.T) {
	for _, impl := range Impls() {
		v := New[int](impl, nil)
		v.Void() // void of empty is a no-op
		if v.IsFull() {
			t.Errorf("%v: full after Void of empty", impl)
		}
		v.Produce(7)
		v.Void()
		if v.IsFull() {
			t.Errorf("%v: full after Void of full", impl)
		}
		// The variable must be usable again after Void.
		v.Produce(8)
		if got := v.Consume(); got != 8 {
			t.Errorf("%v: Consume after Void = %d, want 8", impl, got)
		}
	}
}

// TestProduceBlocksWhileFull: a second producer must wait until a consumer
// empties the variable.
func TestProduceBlocksWhileFull(t *testing.T) {
	for _, impl := range Impls() {
		impl := impl
		t.Run(impl.String(), func(t *testing.T) {
			t.Parallel()
			v := New[int](impl, nil)
			v.Produce(1)
			second := make(chan struct{})
			go func() {
				v.Produce(2) // blocks until the Consume below
				close(second)
			}()
			select {
			case <-second:
				t.Fatal("second Produce completed while variable was full")
			default:
			}
			if got := v.Consume(); got != 1 {
				t.Fatalf("Consume = %d, want 1", got)
			}
			<-second // now the blocked produce must complete
			if got := v.Consume(); got != 2 {
				t.Fatalf("Consume = %d, want 2", got)
			}
		})
	}
}

// TestConsumeBlocksWhileEmpty: a consumer on an empty variable waits for a
// produce.
func TestConsumeBlocksWhileEmpty(t *testing.T) {
	for _, impl := range Impls() {
		impl := impl
		t.Run(impl.String(), func(t *testing.T) {
			t.Parallel()
			v := New[int](impl, nil)
			got := make(chan int)
			go func() { got <- v.Consume() }()
			select {
			case x := <-got:
				t.Fatalf("Consume returned %d from an empty variable", x)
			default:
			}
			v.Produce(99)
			if x := <-got; x != 99 {
				t.Fatalf("Consume = %d, want 99", x)
			}
		})
	}
}

// TestManyProducersManyConsumers checks conservation: every produced value
// is consumed exactly once.  The full/empty cell runs twice: unbound
// (every wait parks) and bound to a cell that lets waiters spin first.
func TestManyProducersManyConsumers(t *testing.T) {
	const producers, perProducer = 4, 200
	spinning := poison.NewCell()
	spinning.SetSpin(true)
	type variant struct {
		name string
		impl Impl
		pc   *poison.Cell
	}
	var variants []variant
	for _, impl := range Impls() {
		variants = append(variants, variant{impl.String(), impl, nil})
	}
	variants = append(variants, variant{"fullempty+spin", FullEmpty, spinning})
	for _, vr := range variants {
		vr := vr
		t.Run(vr.name, func(t *testing.T) {
			t.Parallel()
			v := New[int](vr.impl, lock.Factory(lock.Combined))
			SetPoison(v, vr.pc)
			total := producers * perProducer
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for i := 0; i < perProducer; i++ {
						v.Produce(p*perProducer + i)
					}
				}(p)
			}
			seen := make([]bool, total)
			var mu sync.Mutex
			var cg sync.WaitGroup
			for c := 0; c < producers; c++ {
				cg.Add(1)
				go func() {
					defer cg.Done()
					for i := 0; i < perProducer; i++ {
						x := v.Consume()
						mu.Lock()
						if x < 0 || x >= total || seen[x] {
							t.Errorf("value %d out of range or duplicated", x)
						} else {
							seen[x] = true
						}
						mu.Unlock()
					}
				}()
			}
			wg.Wait()
			cg.Wait()
			for i, s := range seen {
				if !s {
					t.Fatalf("value %d was never consumed", i)
				}
			}
		})
	}
}

// TestPipeline chains variables into the classic produce/consume pipeline
// the construct exists to support.
func TestPipeline(t *testing.T) {
	const stages, items = 4, 100
	for _, impl := range Impls() {
		cells := make([]V[int], stages)
		for i := range cells {
			cells[i] = New[int](impl, nil)
		}
		var wg sync.WaitGroup
		for s := 0; s < stages-1; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for i := 0; i < items; i++ {
					cells[s+1].Produce(cells[s].Consume() + 1)
				}
			}(s)
		}
		go func() {
			for i := 0; i < items; i++ {
				cells[0].Produce(i)
			}
		}()
		for i := 0; i < items; i++ {
			if got := cells[stages-1].Consume(); got != i+stages-1 {
				t.Fatalf("%v: pipeline item %d = %d, want %d", impl, i, got, i+stages-1)
			}
		}
		wg.Wait()
	}
}

// TestTwoLockWithEveryLockKind: the paper's protocol must hold over every
// lock category.
func TestTwoLockWithEveryLockKind(t *testing.T) {
	for _, lk := range lock.Kinds() {
		lk := lk
		t.Run(lk.String(), func(t *testing.T) {
			t.Parallel()
			v := New[int](TwoLock, lock.Factory(lk))
			done := make(chan struct{})
			go func() {
				for i := 0; i < 300; i++ {
					v.Produce(i)
				}
				close(done)
			}()
			for i := 0; i < 300; i++ {
				if got := v.Consume(); got != i {
					t.Fatalf("Consume = %d, want %d (FIFO through a single cell)", got, i)
				}
			}
			<-done
		})
	}
}

// Property: alternating produce/consume of random values always round-trips.
func TestQuickRoundTrip(t *testing.T) {
	prop := func(implIdx uint8, values []int64) bool {
		impls := Impls()
		impl := impls[int(implIdx)%len(impls)]
		v := New[int64](impl, nil)
		for _, x := range values {
			v.Produce(x)
			if v.Consume() != x {
				return false
			}
		}
		return !v.IsFull()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
