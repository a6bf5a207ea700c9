// Package viewgraph implements Hydra's view decomposition machinery
// (§3.2 "Preprocessor" and §5.1.1): the view-graph whose nodes are a view's
// attributes and whose edges connect attributes co-occurring in a CC, its
// chordal completion, the extraction of sub-views as maximal cliques, and
// the greedy sub-view ordering used by the summary generator's align-and-
// merge loop. The ordering satisfies the running intersection property, so
// every incoming sub-view meets the already-merged attributes through a
// single separator — the invariant §5.1.2's alignment depends on.
package viewgraph

import (
	"fmt"
	"sort"
)

// Graph is a simple undirected graph over vertices 0..N-1.
type Graph struct {
	N   int
	adj []map[int]bool
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	g := &Graph{N: n, adj: make([]map[int]bool, n)}
	for i := range g.adj {
		g.adj[i] = map[int]bool{}
	}
	return g
}

// AddEdge inserts the undirected edge (u, v); self-loops are ignored.
func (g *Graph) AddEdge(u, v int) {
	if u == v {
		return
	}
	g.adj[u][v] = true
	g.adj[v][u] = true
}

// AddClique connects every pair among vs (the attributes of one CC appear
// together, so they must form a clique).
func (g *Graph) AddClique(vs []int) {
	for i := 0; i < len(vs); i++ {
		for j := i + 1; j < len(vs); j++ {
			g.AddEdge(vs[i], vs[j])
		}
	}
}

// HasEdge reports whether (u, v) is an edge.
func (g *Graph) HasEdge(u, v int) bool { return g.adj[u][v] }

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	c := New(g.N)
	for v, nb := range g.adj {
		for u := range nb {
			c.adj[v][u] = true
		}
	}
	return c
}

// Chordalize makes the graph chordal in place by running the elimination
// game with the min-fill heuristic, and returns the elimination order along
// with the number of fill edges added. The elimination order is a perfect
// elimination ordering of the resulting chordal graph.
func (g *Graph) Chordalize() (order []int, fill int) {
	work := g.Clone()
	alive := make([]bool, g.N)
	for i := range alive {
		alive[i] = true
	}
	order = make([]int, 0, g.N)
	var nb []int // one vertex's live neighbors, reused across the elimination
	for len(order) < g.N {
		// Pick the live vertex whose elimination needs the fewest fill
		// edges; ties break on index for determinism.
		best, bestFill := -1, -1
		for v := 0; v < g.N; v++ {
			if !alive[v] {
				continue
			}
			nb = work.liveNeighbors(nb[:0], v, alive)
			f := work.fillCount(nb)
			if best == -1 || f < bestFill {
				best, bestFill = v, f
			}
		}
		v := best
		// Connect v's live neighborhood into a clique, recording fill
		// edges in both the working and the output graph.
		nb = work.liveNeighbors(nb[:0], v, alive)
		for i := 0; i < len(nb); i++ {
			for j := i + 1; j < len(nb); j++ {
				if !work.adj[nb[i]][nb[j]] {
					work.AddEdge(nb[i], nb[j])
					g.AddEdge(nb[i], nb[j])
					fill++
				}
			}
		}
		alive[v] = false
		order = append(order, v)
	}
	return order, fill
}

// liveNeighbors appends v's live neighbors to dst, in no set order: the
// elimination only counts and adds the pairs among them.
func (g *Graph) liveNeighbors(dst []int, v int, alive []bool) []int {
	for u := range g.adj[v] {
		if alive[u] {
			dst = append(dst, u)
		}
	}
	return dst
}

// fillCount counts the pairs of nb that are not adjacent.
func (g *Graph) fillCount(nb []int) int {
	missing := 0
	for i := 0; i < len(nb); i++ {
		for j := i + 1; j < len(nb); j++ {
			if !g.adj[nb[i]][nb[j]] {
				missing++
			}
		}
	}
	return missing
}

// MaxCliques extracts the maximal cliques of a chordal graph given a
// perfect elimination ordering: the candidate clique of v is {v} plus its
// neighbors eliminated after v; non-maximal candidates are discarded.
// Cliques are returned with sorted vertices, in a deterministic order.
func MaxCliques(g *Graph, peo []int) [][]int {
	pos := make([]int, g.N)
	for i, v := range peo {
		pos[v] = i
	}
	var cands [][]int
	for i, v := range peo {
		c := []int{v}
		for u := range g.adj[v] {
			if pos[u] > i {
				c = append(c, u)
			}
		}
		sort.Ints(c)
		cands = append(cands, c)
	}
	// Drop candidates strictly contained in another candidate, then
	// deduplicate identical ones.
	var out [][]int
	for i, c := range cands {
		maximal := true
		for j, d := range cands {
			if i != j && len(c) < len(d) && contains(d, c) {
				maximal = false
				break
			}
		}
		if maximal && !dupSeen(out, c) {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return lessIntSlice(out[i], out[j]) })
	return out
}

func dupSeen(cliques [][]int, c []int) bool {
	for _, d := range cliques {
		if len(c) == len(d) && contains(d, c) {
			return true
		}
	}
	return false
}

// contains reports whether sorted slice sup contains all elements of sorted
// slice sub.
func contains(sup, sub []int) bool {
	i := 0
	for _, x := range sub {
		for i < len(sup) && sup[i] < x {
			i++
		}
		if i == len(sup) || sup[i] != x {
			return false
		}
		i++
	}
	return true
}

func lessIntSlice(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// CliqueTree builds a clique tree (junction tree) over the maximal cliques
// of a chordal graph using a maximum-weight spanning forest on intersection
// sizes, which is guaranteed to satisfy the running intersection property.
// Parent[i] is the parent clique index, -1 for roots.
type CliqueTree struct {
	Cliques [][]int
	Parent  []int
	// Order is a preorder traversal: every clique appears after its
	// parent, the sub-view merge order of §5.1.1.
	Order []int
}

// NewCliqueTree builds the tree. Cliques from different connected
// components form a forest; traversal still yields a valid merge order
// because disconnected sub-views share no attributes at all.
func NewCliqueTree(cliques [][]int) *CliqueTree {
	n := len(cliques)
	t := &CliqueTree{Cliques: cliques, Parent: make([]int, n)}
	for i := range t.Parent {
		t.Parent[i] = -1
	}
	if n == 0 {
		return t
	}
	// Prim's algorithm on weights |Cᵢ ∩ Cⱼ| across all components.
	inTree := make([]bool, n)
	bestW := make([]int, n)
	bestTo := make([]int, n)
	for i := range bestW {
		bestW[i] = -1
		bestTo[i] = -1
	}
	for added := 0; added < n; added++ {
		// Pick the unadded clique with the largest connection weight;
		// -1 weights start new components (roots).
		pick := -1
		for i := 0; i < n; i++ {
			if inTree[i] {
				continue
			}
			if pick == -1 || bestW[i] > bestW[pick] {
				pick = i
			}
		}
		inTree[pick] = true
		if bestW[pick] > 0 {
			t.Parent[pick] = bestTo[pick]
		}
		t.Order = append(t.Order, pick)
		for i := 0; i < n; i++ {
			if inTree[i] {
				continue
			}
			w := intersectSize(cliques[pick], cliques[i])
			if w > bestW[i] {
				bestW[i] = w
				bestTo[i] = pick
			}
		}
	}
	return t
}

func intersectSize(a, b []int) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// Intersect returns the sorted intersection of two sorted vertex lists.
func Intersect(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// VerifyMergeOrder checks the paper's §5.1.1 separator condition for a
// merge order over cliques of graph g: when sub-view s is merged, removing
// the vertices s shares with the already-merged set must disconnect the
// remaining vertices of s from the remaining merged vertices. It returns an
// error naming the first violating step, or nil.
func VerifyMergeOrder(g *Graph, cliques [][]int, order []int) error {
	merged := map[int]bool{}
	for step, ci := range order {
		c := cliques[ci]
		if step == 0 {
			for _, v := range c {
				merged[v] = true
			}
			continue
		}
		sep := map[int]bool{}
		for _, v := range c {
			if merged[v] {
				sep[v] = true
			}
		}
		// BFS from c's non-separator vertices avoiding the separator; we
		// must not reach a merged non-separator vertex.
		var queue []int
		visited := map[int]bool{}
		for _, v := range c {
			if !sep[v] {
				queue = append(queue, v)
				visited[v] = true
			}
		}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			if merged[v] && !sep[v] {
				return fmt.Errorf("viewgraph: merge step %d (clique %d) violates the separator condition at vertex %d", step, ci, v)
			}
			for u := range g.adj[v] {
				if !visited[u] && !sep[u] {
					visited[u] = true
					queue = append(queue, u)
				}
			}
		}
		for _, v := range c {
			merged[v] = true
		}
	}
	return nil
}

// Decompose runs the full §3.2 pipeline on a view-graph: chordalize (in
// place), extract maximal cliques, and compute an RIP merge order. The
// returned tree's Order field is the sub-view processing order; fill is
// the number of edges the chordal completion added.
func Decompose(g *Graph) (tree *CliqueTree, fill int) {
	peo, fill := g.Chordalize()
	return NewCliqueTree(MaxCliques(g, peo)), fill
}
