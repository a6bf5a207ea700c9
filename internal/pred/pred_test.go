package pred

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIntervalBasics(t *testing.T) {
	iv := Interval{3, 7}
	if iv.Empty() || !iv.Contains(3) || !iv.Contains(7) || iv.Contains(8) {
		t.Fatal("containment broken")
	}
	if iv.Count() != 5 {
		t.Fatalf("Count = %d, want 5", iv.Count())
	}
	if (Interval{5, 2}).Count() != 0 {
		t.Fatal("empty interval should count 0")
	}
	got := iv.Intersect(Interval{6, 10})
	if got != (Interval{6, 7}) {
		t.Fatalf("Intersect = %v", got)
	}
}

func TestNewSetNormalizes(t *testing.T) {
	s := NewSet(Interval{5, 9}, Interval{1, 3}, Interval{4, 4}, Interval{12, 12}, Interval{20, 10})
	// [1,3] and [4,4] and [5,9] are adjacent → [1,9]; [20,10] is empty.
	ivs := s.Intervals()
	if len(ivs) != 2 || ivs[0] != (Interval{1, 9}) || ivs[1] != (Interval{12, 12}) {
		t.Fatalf("normalization wrong: %v", s)
	}
}

func TestSetOps(t *testing.T) {
	a := NewSet(Interval{0, 10}, Interval{20, 30})
	b := NewSet(Interval{5, 25})
	inter := a.Intersect(b)
	if inter.String() != NewSet(Interval{5, 10}, Interval{20, 25}).String() {
		t.Fatalf("Intersect = %v", inter)
	}
	uni := a.Union(b)
	if !uni.Equal(NewSet(Interval{0, 30})) {
		t.Fatalf("Union = %v", uni)
	}
	diff := a.Subtract(b)
	if !diff.Equal(NewSet(Interval{0, 4}, Interval{26, 30})) {
		t.Fatalf("Subtract = %v", diff)
	}
}

func TestComplementRoundTrip(t *testing.T) {
	s := NewSet(Interval{-5, 5}, Interval{100, 200})
	c := s.Complement()
	if !c.Complement().Equal(s) {
		t.Fatal("double complement should be identity")
	}
	if !s.Intersect(c).Empty() {
		t.Fatal("set and complement must be disjoint")
	}
	if !s.Union(c).Equal(FullSet()) {
		t.Fatal("set ∪ complement must cover the domain")
	}
}

func TestComplementOfFullAndEmpty(t *testing.T) {
	if !FullSet().Complement().Empty() {
		t.Fatal("complement of full should be empty")
	}
	if !(Set{}).Complement().Equal(FullSet()) {
		t.Fatal("complement of empty should be full")
	}
}

func TestContainsBinarySearch(t *testing.T) {
	s := NewSet(Interval{0, 0}, Interval{10, 20}, Interval{100, 100})
	for _, v := range []int64{0, 10, 15, 20, 100} {
		if !s.Contains(v) {
			t.Fatalf("should contain %d", v)
		}
	}
	for _, v := range []int64{-1, 1, 9, 21, 99, 101} {
		if s.Contains(v) {
			t.Fatalf("should not contain %d", v)
		}
	}
}

func TestMinMaxCount(t *testing.T) {
	s := NewSet(Interval{10, 20}, Interval{30, 30})
	if s.Min() != 10 || s.Max() != 30 || s.Count() != 12 {
		t.Fatalf("Min/Max/Count wrong: %d %d %d", s.Min(), s.Max(), s.Count())
	}
}

func TestSubsetOf(t *testing.T) {
	a := NewSet(Interval{5, 8})
	b := NewSet(Interval{0, 10})
	if !a.SubsetOf(b) || b.SubsetOf(a) {
		t.Fatal("SubsetOf broken")
	}
}

func TestBoundaries(t *testing.T) {
	s := NewSet(Interval{10, 19}) // predicate 10 <= A < 20
	bs := s.Boundaries(nil)
	if len(bs) != 2 || bs[0] != 10 || bs[1] != 20 {
		t.Fatalf("Boundaries = %v, want [10 20]", bs)
	}
	// Unbounded sides produce no cut points.
	bs = AtLeast(5).Boundaries(nil)
	if len(bs) != 1 || bs[0] != 5 {
		t.Fatalf("Boundaries(AtLeast) = %v", bs)
	}
}

func randSet(rng *rand.Rand) Set {
	n := 1 + rng.Intn(4)
	ivs := make([]Interval, n)
	for i := range ivs {
		lo := int64(rng.Intn(200) - 100)
		ivs[i] = Interval{lo, lo + int64(rng.Intn(40))}
	}
	return NewSet(ivs...)
}

// Property: for random sets and points, membership in the computed
// intersection/union/subtraction agrees with boolean algebra on membership.
func TestQuickSetAlgebra(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randSet(rng), randSet(rng)
		for k := 0; k < 50; k++ {
			v := int64(rng.Intn(300) - 150)
			inA, inB := a.Contains(v), b.Contains(v)
			if a.Intersect(b).Contains(v) != (inA && inB) {
				return false
			}
			if a.Union(b).Contains(v) != (inA || inB) {
				return false
			}
			if a.Subtract(b).Contains(v) != (inA && !inB) {
				return false
			}
			if a.Complement().Contains(v) != !inA {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: interval sets remain normalized (sorted, disjoint, non-adjacent)
// under every operation.
func TestQuickNormalization(t *testing.T) {
	check := func(s Set) bool {
		ivs := s.Intervals()
		for i, iv := range ivs {
			if iv.Empty() {
				return false
			}
			if i > 0 && ivs[i-1].Hi+1 >= iv.Lo {
				return false
			}
		}
		return true
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randSet(rng), randSet(rng)
		return check(a.Intersect(b)) && check(a.Union(b)) && check(a.Subtract(b)) && check(a.Complement())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestConjunctEval(t *testing.T) {
	c := NewConjunct().With(0, Range(20, 59)).With(1, AtLeast(100))
	if !c.Eval([]int64{20, 100}) || !c.Eval([]int64{59, 1000}) {
		t.Fatal("should satisfy")
	}
	if c.Eval([]int64{60, 100}) || c.Eval([]int64{20, 99}) {
		t.Fatal("should not satisfy")
	}
}

func TestConjunctWithIntersects(t *testing.T) {
	c := NewConjunct().With(0, Range(0, 100)).With(0, Range(50, 200))
	s, ok := c.Restriction(0)
	if !ok || !s.Equal(Range(50, 100)) {
		t.Fatalf("conjunction on same attr should intersect, got %v", s)
	}
}

func TestConjunctUnsatisfiable(t *testing.T) {
	c := NewConjunct().With(0, Range(0, 10)).With(0, Range(20, 30))
	if !c.Unsatisfiable() {
		t.Fatal("disjoint ranges on one attribute must be unsatisfiable")
	}
}

func TestDNFEvalAndAttrs(t *testing.T) {
	// (A1 <= 20 ∧ A2 > 30) ∨ (A1 > 50) — the §4.2 example.
	p := DNF{Terms: []Conjunct{
		NewConjunct().With(0, AtMost(20)).With(1, AtLeast(31)),
		NewConjunct().With(0, AtLeast(51)),
	}}
	cases := []struct {
		pt   []int64
		want bool
	}{
		{[]int64{10, 40}, true},
		{[]int64{10, 30}, false},
		{[]int64{60, 0}, true},
		{[]int64{30, 40}, false},
	}
	for _, c := range cases {
		if p.Eval(c.pt) != c.want {
			t.Fatalf("Eval(%v) = %v, want %v", c.pt, !c.want, c.want)
		}
	}
	attrs := p.Attrs()
	if len(attrs) != 2 || attrs[0] != 0 || attrs[1] != 1 {
		t.Fatalf("Attrs = %v", attrs)
	}
}

func TestDNFAndOr(t *testing.T) {
	a := DNF{Terms: []Conjunct{NewConjunct().With(0, Range(0, 10))}}
	b := DNF{Terms: []Conjunct{NewConjunct().With(1, Range(5, 15))}}
	and := a.And(b)
	if len(and.Terms) != 1 {
		t.Fatalf("And terms = %d", len(and.Terms))
	}
	if !and.Eval([]int64{5, 10}) || and.Eval([]int64{11, 10}) {
		t.Fatal("And semantics broken")
	}
	or := a.Or(b)
	if !or.Eval([]int64{11, 10}) || or.Eval([]int64{11, 16}) {
		t.Fatal("Or semantics broken")
	}
}

func TestDNFAndPrunesUnsatisfiable(t *testing.T) {
	a := DNF{Terms: []Conjunct{NewConjunct().With(0, Range(0, 10))}}
	b := DNF{Terms: []Conjunct{NewConjunct().With(0, Range(20, 30))}}
	if got := len(a.And(b).Terms); got != 0 {
		t.Fatalf("unsatisfiable conjunct should be pruned, got %d terms", got)
	}
}

func TestRemap(t *testing.T) {
	p := DNF{Terms: []Conjunct{NewConjunct().With(3, Range(1, 2))}}
	q := p.Remap(map[int]int{3: 0})
	if !q.Eval([]int64{1}) || q.Eval([]int64{3}) {
		t.Fatal("Remap broken")
	}
}

func TestTrueDNF(t *testing.T) {
	if !True().Eval([]int64{}) {
		t.Fatal("True() must hold everywhere")
	}
	if (DNF{}).Eval([]int64{}) {
		t.Fatal("empty DNF must be false")
	}
}

// Property: Classify agrees with Intersect and Subtract (Disjoint iff
// the intersection is empty, Inside iff the difference is empty and the
// set is not), and Subtract returns exactly the intervals of s ∩ ¬o, the
// form it had when it went through the domain complement. Sets include
// the empty set, the full domain and half-lines.
func TestQuickClassifyAgreesWithIntersectSubtract(t *testing.T) {
	pick := func(rng *rand.Rand) Set {
		switch rng.Intn(8) {
		case 0:
			return Set{}
		case 1:
			return FullSet()
		case 2:
			return AtLeast(int64(rng.Intn(200) - 100))
		case 3:
			return AtMost(int64(rng.Intn(200) - 100))
		}
		return randSet(rng)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, o := pick(rng), pick(rng)
		inter, diff := s.Intersect(o), s.Subtract(o)
		want := Split
		switch {
		case inter.Empty():
			want = Disjoint
		case diff.Empty():
			want = Inside
		}
		if got := s.Classify(o); got != want {
			t.Logf("%v against %v: %d, want %d", s, o, got, want)
			return false
		}
		ref := s.Intersect(o.Complement())
		if len(diff.Intervals()) != len(ref.Intervals()) {
			return false
		}
		for i, iv := range diff.Intervals() {
			if iv != ref.Intervals()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestClassifyAllocatesNothing: classifying a block dimension against a
// restriction is the partitioner's inner test and must not allocate.
func TestClassifyAllocatesNothing(t *testing.T) {
	s := NewSet(Interval{0, 9}, Interval{20, 29}, Interval{40, 49})
	o := NewSet(Interval{5, 24}, Interval{45, 60})
	if allocs := testing.AllocsPerRun(100, func() { _ = s.Classify(o) }); allocs != 0 {
		t.Fatalf("Classify allocates %v objects", allocs)
	}
}

// TestAppendOpsLeaveDstPrefix: the Append functions write after what dst
// holds and never merge into it, even when dst's last interval touches
// the result's first, and they give what the Set methods give; the union
// is the one NewSet normalizes from both sides' intervals.
func TestAppendOpsLeaveDstPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ops := []struct {
		name string
		fn   func(dst, a, b []Interval) []Interval
		want func(a, b Set) Set
	}{
		{"intersect", AppendIntersect, Set.Intersect},
		{"union", AppendUnion, func(a, b Set) Set { return NewSet(append(append([]Interval(nil), a.ivs...), b.ivs...)...) }},
		{"subtract", AppendSubtract, Set.Subtract},
	}
	for range 500 {
		a, b := randSet(rng), randSet(rng)
		prefix := []Interval{{-1000, -101}} // touches any interval starting at -100
		for _, op := range ops {
			got := op.fn(append([]Interval(nil), prefix...), a.ivs, b.ivs)
			if got[0] != prefix[0] || !Sorted(got[1:]).Equal(op.want(a, b)) {
				t.Fatalf("%s of %v and %v after %v: %v, want %v", op.name, a, b, prefix, got, op.want(a, b))
			}
		}
	}
}
