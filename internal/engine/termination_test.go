package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/poison"
)

// node is one task of the stress tree: heap-numbered (children of id
// are 2·id and 2·id+1), with the right child two levels deeper than the
// left, so subtrees are unbalanced.
type node struct{ id, depth int }

const stressDepth = 15

// stressNodes counts the tree rooted at depth d.
func stressNodes(d int) int {
	if d >= stressDepth {
		return 1
	}
	return 1 + stressNodes(d+1) + stressNodes(d+2)
}

// TestPoolTerminationStress drains an unbalanced tree through both pool
// disciplines at np ∈ {1, 2, 8}, repeatedly.  Bodies yield between
// their two Puts, so idle workers go looking for work while their
// peers are mid-body, and at np > 1 task 2 blocks until task 3, put
// after it, has run.  Every task must run exactly once, and no
// process's Next may report the pool drained before every task has
// finished.
func TestPoolTerminationStress(t *testing.T) {
	total := int64(stressNodes(0))
	rounds := 20
	if testing.Short() {
		rounds = 4
	}
	for _, kind := range PoolKinds() {
		for _, np := range []int{1, 2, 8} {
			for r := 0; r < rounds; r++ {
				cell := poison.NewCell()
				cell.SetSpin(np <= runtime.GOMAXPROCS(0))
				p := NewPool(kind, np, []any{node{1, 0}}, cell)
				runs := make([]atomic.Int32, 1<<(stressDepth+2))
				var finished atomic.Int64
				var early atomic.Int64
				third := make(chan struct{})
				var wg sync.WaitGroup
				for pid := 0; pid < np; pid++ {
					wg.Add(1)
					go func(pid int) {
						defer wg.Done()
						for {
							task, ok := p.Next(pid)
							if !ok {
								if finished.Load() != total {
									early.Store(finished.Load() + 1)
								}
								return
							}
							n := task.(node)
							runs[n.id].Add(1)
							switch {
							case n.id == 3:
								close(third)
							case n.id == 2 && np > 1:
								select {
								case <-third:
								case <-time.After(10 * time.Second):
									t.Errorf("%s np=%d: task 3 never ran while task 2 waited", kind, np)
								}
							}
							if n.depth < stressDepth {
								p.Put(pid, node{2 * n.id, n.depth + 1})
								runtime.Gosched()
								p.Put(pid, node{2*n.id + 1, n.depth + 2})
							}
							finished.Add(1)
							p.Done(pid)
						}
					}(pid)
				}
				done := make(chan struct{})
				go func() { wg.Wait(); close(done) }()
				select {
				case <-done:
				case <-time.After(60 * time.Second):
					t.Fatalf("%s np=%d round %d: pool did not terminate (%d of %d tasks finished)",
						kind, np, r, finished.Load(), total)
				}
				p.Close()
				if e := early.Load(); e != 0 {
					t.Fatalf("%s np=%d round %d: a Next reported the pool drained after %d of %d tasks",
						kind, np, r, e-1, total)
				}
				var ran int64
				for id := range runs {
					switch c := runs[id].Load(); {
					case c > 1:
						t.Fatalf("%s np=%d round %d: task %d ran %d times", kind, np, r, id, c)
					case c == 1:
						ran++
					}
				}
				if ran != total || finished.Load() != total {
					t.Fatalf("%s np=%d round %d: ran %d distinct tasks, finished %d, want %d",
						kind, np, r, ran, finished.Load(), total)
				}
			}
		}
	}
}
