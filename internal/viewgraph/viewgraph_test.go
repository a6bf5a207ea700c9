package viewgraph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestChordalizeCycle(t *testing.T) {
	// A 4-cycle needs exactly one chord.
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 0)
	_, fill := g.Chordalize()
	if fill != 1 {
		t.Fatalf("4-cycle needs 1 fill edge, got %d", fill)
	}
}

func TestChordalizeTriangleNoFill(t *testing.T) {
	g := New(3)
	g.AddClique([]int{0, 1, 2})
	_, fill := g.Chordalize()
	if fill != 0 {
		t.Fatalf("triangle is chordal, got %d fill edges", fill)
	}
}

func TestMaxCliquesPath(t *testing.T) {
	// Path 0-1-2: maximal cliques {0,1}, {1,2}.
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	peo, _ := g.Chordalize()
	cliques := MaxCliques(g, peo)
	if len(cliques) != 2 {
		t.Fatalf("got %d cliques %v, want 2", len(cliques), cliques)
	}
}

func TestMaxCliquesCompleteGraph(t *testing.T) {
	g := New(4)
	g.AddClique([]int{0, 1, 2, 3})
	peo, _ := g.Chordalize()
	cliques := MaxCliques(g, peo)
	if len(cliques) != 1 || len(cliques[0]) != 4 {
		t.Fatalf("K4 should yield one 4-clique, got %v", cliques)
	}
}

func TestMaxCliquesIsolatedVertices(t *testing.T) {
	g := New(3) // no edges: each vertex is its own maximal clique
	peo, _ := g.Chordalize()
	cliques := MaxCliques(g, peo)
	if len(cliques) != 3 {
		t.Fatalf("got %v, want three singleton cliques", cliques)
	}
}

func TestCliqueTreePreorder(t *testing.T) {
	// Cliques {0,1}, {1,2}, {2,3} chain.
	tree := NewCliqueTree([][]int{{0, 1}, {1, 2}, {2, 3}})
	if len(tree.Order) != 3 {
		t.Fatalf("order %v", tree.Order)
	}
	// Every non-root must appear after its parent.
	seen := map[int]bool{}
	for _, ci := range tree.Order {
		if p := tree.Parent[ci]; p != -1 && !seen[p] {
			t.Fatalf("clique %d ordered before its parent %d", ci, p)
		}
		seen[ci] = true
	}
}

func TestCliqueTreeForest(t *testing.T) {
	// Two disconnected cliques form a forest with two roots.
	tree := NewCliqueTree([][]int{{0, 1}, {2, 3}})
	roots := 0
	for _, p := range tree.Parent {
		if p == -1 {
			roots++
		}
	}
	if roots != 2 {
		t.Fatalf("expected 2 roots, got %d (parents %v)", roots, tree.Parent)
	}
}

func TestVerifyMergeOrderAcceptsDecompose(t *testing.T) {
	// Star query graph typical of a fact-table view: fact attrs touching
	// several dimension attrs.
	g := New(6)
	g.AddClique([]int{0, 1})
	g.AddClique([]int{1, 2})
	g.AddClique([]int{2, 3, 4})
	g.AddEdge(4, 5)
	tree, _ := Decompose(g)
	if err := VerifyMergeOrder(g, tree.Cliques, tree.Order); err != nil {
		t.Fatalf("Decompose order must satisfy the separator condition: %v", err)
	}
}

func TestVerifyMergeOrderRejectsBadOrder(t *testing.T) {
	// Chain of cliques {0,1},{1,2},{2,3}: merging {0,1} then {2,3}
	// violates the condition ({2,3} shares nothing with {0,1} but is
	// connected to it through vertex 1–2 path).
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	cliques := [][]int{{0, 1}, {1, 2}, {2, 3}}
	if err := VerifyMergeOrder(g, cliques, []int{0, 2, 1}); err == nil {
		t.Fatal("expected separator violation for order [0 2 1]")
	}
	if err := VerifyMergeOrder(g, cliques, []int{0, 1, 2}); err != nil {
		t.Fatalf("chain order should be fine: %v", err)
	}
}

func TestIntersect(t *testing.T) {
	got := Intersect([]int{1, 3, 5, 7}, []int{3, 4, 5, 8})
	if len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Fatalf("Intersect = %v", got)
	}
}

// Property: Decompose on random graphs yields (a) cliques covering every
// edge, (b) a merge order passing the paper's separator condition.
func TestQuickDecompose(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		g := New(n)
		edges := [][2]int{}
		for i := 0; i < n*2; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(u, v)
				edges = append(edges, [2]int{u, v})
			}
		}
		orig := g.Clone()
		tree, _ := Decompose(g)
		// (a) every original edge inside some clique
		for _, e := range edges {
			found := false
			for _, c := range tree.Cliques {
				if contains(c, []int{min(e[0], e[1]), max(e[0], e[1])}) {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		// (b) separator condition on the chordalized graph
		if err := VerifyMergeOrder(g, tree.Cliques, tree.Order); err != nil {
			return false
		}
		// (c) every vertex appears in some clique
		seen := make([]bool, n)
		for _, c := range tree.Cliques {
			for _, v := range c {
				seen[v] = true
			}
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		_ = orig
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: every clique returned is actually a clique of the chordalized
// graph and is maximal within the returned set.
func TestQuickCliquesAreCliques(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(9)
		g := New(n)
		for i := 0; i < n*2; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(u, v)
			}
		}
		peo, _ := g.Chordalize()
		cliques := MaxCliques(g, peo)
		for _, c := range cliques {
			for i := 0; i < len(c); i++ {
				for j := i + 1; j < len(c); j++ {
					if !g.HasEdge(c[i], c[j]) {
						return false
					}
				}
			}
		}
		for i, c := range cliques {
			for j, d := range cliques {
				if i != j && len(c) <= len(d) && contains(d, c) {
					return false // non-maximal or duplicate survived
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
