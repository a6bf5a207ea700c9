package partition

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/dsl-repro/hydra/internal/pred"
)

// RepBlock returns the block whose corner is the region's representative
// point: the block with the lexicographically smallest corner. Blocks are
// disjoint, so no two share a corner.
func (r Region) RepBlock() Block {
	best := r.Blocks[0]
	for _, b := range r.Blocks[1:] {
		if slices.Compare(b.Rep(), best.Rep()) < 0 {
			best = b
		}
	}
	return best
}

// Contains reports whether the point lies inside one of the region's
// blocks.
func (r Region) Contains(pt []int64) bool {
	for _, b := range r.Blocks {
		in := true
		for i, s := range b.Dims {
			if !s.Contains(pt[i]) {
				in = false
				break
			}
		}
		if in {
			return true
		}
	}
	return false
}

// personSpace and personCCs encode the §3.2 "Person" example:
//
//	|age < 40 ∧ salary < 40K|          = 1000
//	|20 ≤ age < 60 ∧ 20K ≤ sal < 60K|  = 2000
//	|Person|                            = 8000
func personSpace() []pred.Set {
	return []pred.Set{pred.Range(0, 99), pred.Range(0, 99_999)}
}

func personCCs() []pred.DNF {
	c1 := pred.DNF{Terms: []pred.Conjunct{
		pred.NewConjunct().With(0, pred.AtMost(39)).With(1, pred.AtMost(39_999)),
	}}
	c2 := pred.DNF{Terms: []pred.Conjunct{
		pred.NewConjunct().With(0, pred.Range(20, 59)).With(1, pred.Range(20_000, 59_999)),
	}}
	total := pred.True()
	return []pred.DNF{c1, c2, total}
}

func TestPersonExampleRegionCount(t *testing.T) {
	regions := Optimal(personSpace(), personCCs())
	// The paper's Figure 3b: exactly 4 regions (y1..y4) versus 16 grid
	// cells (Figure 3a).
	if len(regions) != 4 {
		t.Fatalf("got %d regions, want 4 (paper Fig. 3b)", len(regions))
	}
	grid := NewGrid(personSpace(), personCCs())
	if grid.Cells.Int64() != 16 {
		t.Fatalf("grid cells = %v, want 16 (paper Fig. 3a)", grid.Cells)
	}
}

func TestPersonExampleLabels(t *testing.T) {
	regions := Optimal(personSpace(), personCCs())
	// Count regions per constraint membership; from Figure 4b:
	// C1 covers 2 regions (y1,y2), C2 covers 2 (y2,y3), total covers all 4.
	var c1, c2, tot int
	for _, r := range regions {
		if r.Label.Has(0) {
			c1++
		}
		if r.Label.Has(1) {
			c2++
		}
		if r.Label.Has(2) {
			tot++
		}
	}
	if c1 != 2 || c2 != 2 || tot != 4 {
		t.Fatalf("label coverage c1=%d c2=%d tot=%d, want 2 2 4", c1, c2, tot)
	}
}

func TestRegionsArePartition(t *testing.T) {
	regions := Optimal(personSpace(), personCCs())
	// Sample points; each must be in exactly one region.
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 1000; k++ {
		pt := []int64{int64(rng.Intn(100)), int64(rng.Intn(100_000))}
		found := 0
		for _, r := range regions {
			if r.Contains(pt) {
				found++
			}
		}
		if found != 1 {
			t.Fatalf("point %v in %d regions, want 1", pt, found)
		}
	}
}

func TestDNFWithDisjunction(t *testing.T) {
	// ((A1 ≤ 20) ∧ (A2 > 30)) ∨ (A1 > 50), the §4.2 example.
	space := []pred.Set{pred.Range(0, 100), pred.Range(0, 100)}
	c := pred.DNF{Terms: []pred.Conjunct{
		pred.NewConjunct().With(0, pred.AtMost(20)).With(1, pred.AtLeast(31)),
		pred.NewConjunct().With(0, pred.AtLeast(51)),
	}}
	regions := Optimal(space, []pred.DNF{c, pred.True()})
	// Validity: every region must be uniform w.r.t. the DNF.
	for _, r := range regions {
		want := c.Eval(r.Rep())
		for _, b := range r.Blocks {
			for _, pt := range blockSamplePoints(b) {
				if c.Eval(pt) != want {
					t.Fatalf("region not uniform: rep=%v pt=%v", r.Rep(), pt)
				}
			}
		}
	}
	// Exactly 2 labels exist: satisfies / does not satisfy (plus total
	// always true) → 2 regions.
	if len(regions) != 2 {
		t.Fatalf("got %d regions, want 2", len(regions))
	}
}

// blockSamplePoints returns corner-ish points of a block: min/max of each
// interval in each dimension, combined greedily (full cross product for the
// 2-D cases used in tests).
func blockSamplePoints(b Block) [][]int64 {
	perDim := make([][]int64, len(b.Dims))
	for i, s := range b.Dims {
		for _, iv := range s.Intervals() {
			perDim[i] = append(perDim[i], iv.Lo, iv.Hi)
		}
	}
	pts := [][]int64{nil}
	for _, vals := range perDim {
		var next [][]int64
		for _, p := range pts {
			for _, v := range vals {
				np := append(append([]int64(nil), p...), v)
				next = append(next, np)
			}
		}
		pts = next
	}
	return pts
}

func randDNF(rng *rand.Rand, nDims int) pred.DNF {
	nTerms := 1 + rng.Intn(2)
	terms := make([]pred.Conjunct, 0, nTerms)
	for i := 0; i < nTerms; i++ {
		c := pred.NewConjunct()
		for d := 0; d < nDims; d++ {
			if rng.Intn(2) == 0 {
				continue
			}
			lo := int64(rng.Intn(90))
			hi := lo + int64(rng.Intn(30))
			c = c.With(d, pred.Range(lo, hi))
		}
		if len(c.Cols) > 0 {
			terms = append(terms, c)
		}
	}
	if len(terms) == 0 {
		terms = append(terms, pred.NewConjunct().With(0, pred.AtMost(int64(rng.Intn(100)))))
	}
	return pred.DNF{Terms: terms}
}

// Property (validity, Lemma 4.7 + 4.4): every region is uniform with
// respect to every constraint, judged at random sample points.
func TestQuickRegionValidity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nDims := 1 + rng.Intn(3)
		space := make([]pred.Set, nDims)
		for i := range space {
			space[i] = pred.Range(0, 120)
		}
		nCons := 1 + rng.Intn(4)
		cons := make([]pred.DNF, 0, nCons+1)
		for i := 0; i < nCons; i++ {
			cons = append(cons, randDNF(rng, nDims))
		}
		cons = append(cons, pred.True())
		regions := Optimal(space, cons)
		// Sample random points; find region; check label agreement.
		for k := 0; k < 200; k++ {
			pt := make([]int64, nDims)
			for i := range pt {
				pt[i] = int64(rng.Intn(121))
			}
			found := -1
			for ri, r := range regions {
				if r.Contains(pt) {
					if found != -1 {
						return false // overlap
					}
					found = ri
				}
			}
			if found == -1 {
				return false // gap
			}
			r := regions[found]
			for j, c := range cons {
				if c.Eval(pt) != r.Label.Has(j) {
					return false // non-uniform region
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property (optimality, Lemma 4.3): all regions have distinct labels —
// merging went as far as possible.
func TestQuickRegionOptimality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nDims := 1 + rng.Intn(3)
		space := make([]pred.Set, nDims)
		for i := range space {
			space[i] = pred.Range(0, 120)
		}
		var cons []pred.DNF
		for i := 0; i < 1+rng.Intn(4); i++ {
			cons = append(cons, randDNF(rng, nDims))
		}
		regions := Optimal(space, cons)
		seen := map[string]bool{}
		for _, r := range regions {
			k := r.Label.key()
			if seen[k] {
				return false
			}
			seen[k] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: region partitioning never produces more variables than grid
// partitioning (the paper's core complexity claim).
func TestQuickRegionNeverWorseThanGrid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nDims := 1 + rng.Intn(3)
		space := make([]pred.Set, nDims)
		for i := range space {
			space[i] = pred.Range(0, 120)
		}
		var cons []pred.DNF
		for i := 0; i < 1+rng.Intn(4); i++ {
			cons = append(cons, randDNF(rng, nDims))
		}
		cons = append(cons, pred.True())
		regions := Optimal(space, cons)
		grid := NewGrid(space, cons)
		return big_le(int64(len(regions)), grid)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func big_le(n int64, g *Grid) bool {
	if !g.Cells.IsInt64() {
		return true
	}
	return n <= g.Cells.Int64()
}

// Property (algorithm equivalence): OptimalIncremental computes the same
// partition as the literal-paper Optimal — same region count, and every
// sample point lands in regions with identical labels.
func TestQuickIncrementalEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nDims := 1 + rng.Intn(3)
		space := make([]pred.Set, nDims)
		for i := range space {
			space[i] = pred.Range(0, 120)
		}
		var cons []pred.DNF
		for i := 0; i < 1+rng.Intn(5); i++ {
			cons = append(cons, randDNF(rng, nDims))
		}
		cons = append(cons, pred.True())
		ref := Optimal(space, cons)
		inc, err := optimalIncrementalBlocks(space, cons, 0)
		if err != nil {
			return false
		}
		if len(ref) != len(inc) {
			return false
		}
		for k := 0; k < 150; k++ {
			pt := make([]int64, nDims)
			for i := range pt {
				pt[i] = int64(rng.Intn(121))
			}
			var refLbl, incLbl Label
			hits := 0
			for _, r := range ref {
				if r.Contains(pt) {
					refLbl = r.Label
					hits++
				}
			}
			for _, r := range inc {
				if r.Contains(pt) {
					incLbl = r.Label
					hits++
				}
			}
			if hits != 2 {
				return false
			}
			for j := range cons {
				if refLbl.Has(j) != incLbl.Has(j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalPersonExample(t *testing.T) {
	regions, err := OptimalIncremental(personSpace(), personCCs(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 4 {
		t.Fatalf("got %d regions, want 4", len(regions))
	}
}

func TestIncrementalCap(t *testing.T) {
	space := []pred.Set{pred.Range(0, 1000), pred.Range(0, 1000)}
	var cons []pred.DNF
	for i := 0; i < 30; i++ {
		cons = append(cons, pred.DNF{Terms: []pred.Conjunct{
			pred.NewConjunct().With(0, pred.Range(int64(i*10), int64(i*10+500))).
				With(1, pred.Range(int64(i*7), int64(i*7+400))),
		}})
	}
	if _, err := OptimalIncremental(space, cons, 8); err == nil {
		t.Fatal("tiny cap should trip")
	}
	if _, err := OptimalIncremental(space, cons, 0); err != nil {
		t.Fatalf("unlimited must succeed: %v", err)
	}
}

func TestAtoms(t *testing.T) {
	domain := pred.Range(0, 99)
	conjs := []pred.Conjunct{
		pred.NewConjunct().With(0, pred.Range(20, 59)),
		pred.NewConjunct().With(0, pred.AtMost(39)),
	}
	atoms := Atoms(domain, conjs, 0)
	// Cuts at 20, 40, 60 → [0,19][20,39][40,59][60,99].
	want := []pred.Interval{{Lo: 0, Hi: 19}, {Lo: 20, Hi: 39}, {Lo: 40, Hi: 59}, {Lo: 60, Hi: 99}}
	if len(atoms) != len(want) {
		t.Fatalf("atoms = %v, want %v", atoms, want)
	}
	for i := range want {
		if atoms[i] != want[i] {
			t.Fatalf("atom %d = %v, want %v", i, atoms[i], want[i])
		}
	}
}

func TestAtomsNoConstraints(t *testing.T) {
	atoms := Atoms(pred.Range(5, 10), nil, 0)
	if len(atoms) != 1 || atoms[0] != (pred.Interval{Lo: 5, Hi: 10}) {
		t.Fatalf("atoms = %v", atoms)
	}
}

func TestMarkerDNFsKeepRegionsWithinAtoms(t *testing.T) {
	space := []pred.Set{pred.Range(0, 99)}
	ccs := []pred.DNF{
		{Terms: []pred.Conjunct{pred.NewConjunct().With(0, pred.Range(10, 49))}},
		pred.True(),
	}
	var conjs []pred.Conjunct
	for _, c := range ccs {
		conjs = append(conjs, c.Terms...)
	}
	atoms := Atoms(space[0], conjs, 0)
	all := append(append([]pred.DNF(nil), ccs...), MarkerDNFs(0, atoms)...)
	regions := Optimal(space, all)
	// Every region must project into exactly one atom.
	for _, r := range regions {
		rep := r.Rep()
		atomOf := func(v int64) int {
			for i, a := range atoms {
				if a.Contains(v) {
					return i
				}
			}
			return -1
		}
		want := atomOf(rep[0])
		for _, b := range r.Blocks {
			for _, iv := range b.Dims[0].Intervals() {
				if atomOf(iv.Lo) != want || atomOf(iv.Hi) != want {
					t.Fatalf("region spans multiple atoms: %v", r.Blocks)
				}
			}
		}
	}
}

func TestGridEnumerate(t *testing.T) {
	g := NewGrid(personSpace(), personCCs())
	if !g.Enumerable(100) {
		t.Fatal("16-cell grid must be enumerable")
	}
	cells := g.EnumerateCells(100)
	if len(cells) != 16 {
		t.Fatalf("enumerated %d cells, want 16", len(cells))
	}
	// Cells tile the space: total points = 100 * 100000.
	var total int64
	for _, c := range cells {
		total += c.Dims[0].Count() * c.Dims[1].Count()
	}
	if total != 100*100_000 {
		t.Fatalf("cells cover %d points, want %d", total, 100*100_000)
	}
}

func TestGridCellRegionsLabels(t *testing.T) {
	cons := personCCs()
	g := NewGrid(personSpace(), cons)
	regions := g.CellRegions(cons, 100)
	// Fig. 4a: C1 covers 4 cells, C2 covers 4 cells, total covers 16.
	var c1, c2, tot int
	for _, r := range regions {
		if r.Label.Has(0) {
			c1++
		}
		if r.Label.Has(1) {
			c2++
		}
		if r.Label.Has(2) {
			tot++
		}
	}
	if c1 != 4 || c2 != 4 || tot != 16 {
		t.Fatalf("grid label coverage c1=%d c2=%d tot=%d, want 4 4 16", c1, c2, tot)
	}
}

func TestGridNotEnumerable(t *testing.T) {
	// 6 dims × ~30 atoms each ≈ 7×10⁸ cells — refuse under a small cap.
	space := make([]pred.Set, 6)
	var cons []pred.DNF
	for i := range space {
		space[i] = pred.Range(0, 1_000_000)
		for k := 0; k < 15; k++ {
			lo := int64(k * 50_000)
			cons = append(cons, pred.DNF{Terms: []pred.Conjunct{
				pred.NewConjunct().With(i, pred.Range(lo, lo+25_000)),
			}})
		}
	}
	g := NewGrid(space, cons)
	if g.Enumerable(1_000_000) {
		t.Fatalf("grid with %v cells should not be enumerable", g.Cells)
	}
}

func TestEmptySpaceRefine(t *testing.T) {
	blocks := Refine([]pred.Set{{}}, nil)
	if blocks != nil {
		t.Fatal("empty space should produce no blocks")
	}
}

func TestRegionRepDeterministic(t *testing.T) {
	regions := Optimal(personSpace(), personCCs())
	again := Optimal(personSpace(), personCCs())
	if len(regions) != len(again) {
		t.Fatal("non-deterministic region count")
	}
	for i := range regions {
		a, b := regions[i].Rep(), again[i].Rep()
		for d := range a {
			if a[d] != b[d] {
				t.Fatalf("region %d rep differs: %v vs %v", i, a, b)
			}
		}
	}
}
