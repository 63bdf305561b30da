package core

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// ringRun passes a token round an np-process ring of asynchronous cells
// for rounds rounds: each round every process consumes its own cell,
// folds the round number in, and produces its successor's cell.  It
// returns the final token and whether the force's cell allowed waiters
// to spin during the run.
func ringRun(t *testing.T, np, rounds int, timeout time.Duration) (token int, spun bool) {
	t.Helper()
	f := New(np)
	defer f.Close()
	ring := NewAsyncArray[int](f, np)
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	err := f.RunContext(ctx, func(p *Proc) {
		me := p.ID()
		if me == 0 {
			spun = f.Fault().Spins()
			ring.Produce(0, 1)
		}
		for r := 1; r <= rounds; r++ {
			x := ring.Consume(me)
			ring.Produce((me+1)%np, (x*7+r)%1000003)
		}
		p.BarrierSection(func() { token = ring.Consume(0) })
	})
	if err != nil {
		t.Fatalf("np=%d ring of %d rounds: %v", np, rounds, err)
	}
	return token, spun
}

// TestAsyncRingOversubscribed runs a 4-process token ring on one CPU:
// 4,000 hops must finish well inside the deadline, and waiters must
// not spin — a spinning waiter holds the only CPU the process it waits
// for needs.
func TestAsyncRingOversubscribed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	start := time.Now()
	_, spun := ringRun(t, 4, 1000, 5*time.Second)
	if spun {
		t.Error("waiters spin in a force of 4 processes on GOMAXPROCS=1")
	}
	t.Logf("4,000 hops on one CPU in %v", time.Since(start))
}

// TestAsyncRingExactToken checks the 2-process ring's final token
// against a sequential replay of the same hops.
func TestAsyncRingExactToken(t *testing.T) {
	const np, rounds = 2, 5000
	want := 1
	for r := 1; r <= rounds; r++ {
		for p := 0; p < np; p++ {
			want = (want*7 + r) % 1000003
		}
	}
	got, spun := ringRun(t, np, rounds, 30*time.Second)
	if got != want {
		t.Fatalf("final token %d, want %d", got, want)
	}
	if wantSpin := np <= runtime.GOMAXPROCS(0); spun != wantSpin {
		t.Errorf("spin recorded %v at np=%d, GOMAXPROCS=%d", spun, np, runtime.GOMAXPROCS(0))
	}
}
