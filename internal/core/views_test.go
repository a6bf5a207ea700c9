package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"github.com/dsl-repro/hydra/internal/preprocess"
)

// TestSolveViewsContinuationFailsFirstViewInOrder: when the per-view
// continuation fails on two views, SolveViews reports the first of them
// in input order at any worker count, although the later one has more
// CCs and so is dispatched first. The continuation gets the solution of
// the view it is called for, and runs at most once per view.
func TestSolveViewsContinuationFailsFirstViewInOrder(t *testing.T) {
	views := []*preprocess.View{personView(t), multiSubViewView(t), conflictView(t, 35), chainView(t)}
	if len(views[3].CCs) <= len(views[1].CCs) {
		t.Fatal("the last view must have the most CCs, so that it is dispatched first")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for call := 0; call < 8; call++ {
			var mu sync.Mutex
			seen := map[int]int{}
			_, err := SolveViews(context.Background(), views, Options{}, func(i int, sol *ViewSolution) error {
				mu.Lock()
				seen[i]++
				mu.Unlock()
				if sol == nil || sol.View != views[i] {
					return fmt.Errorf("view %d: continuation got another view's solution", i)
				}
				if i == 1 || i == 3 {
					return fmt.Errorf("align view %s", views[i].Table.Name)
				}
				return nil
			})
			if err == nil || err.Error() != "align view "+views[1].Table.Name {
				t.Fatalf("GOMAXPROCS %d call %d: err = %v, want view %s's continuation error", procs, call, err, views[1].Table.Name)
			}
			for i, n := range seen {
				if n != 1 {
					t.Fatalf("GOMAXPROCS %d call %d: continuation ran %d times on view %d", procs, call, n, i)
				}
			}
		}
	}
}
