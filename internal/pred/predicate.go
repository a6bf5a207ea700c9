package pred

import (
	"fmt"
	"sort"
	"strings"
)

// Conjunct is one "sub-constraint" of the paper (§4.2): a conjunction of
// per-attribute constraints. It maps an attribute identifier to the set of
// values that attribute may take. Attributes absent from the map are
// unconstrained ("true" in the paper's Definition 4.5).
//
// Attribute identifiers are small integers assigned by the caller (the
// preprocessor numbers a view's attributes 0..n-1).
type Conjunct struct {
	Cols map[int]Set
}

// NewConjunct returns an empty (always-true) conjunct.
func NewConjunct() Conjunct { return Conjunct{Cols: map[int]Set{}} }

// With returns a copy of the conjunct with the constraint on attr
// intersected with s (conjunction of per-attribute constraints on the same
// attribute collapses to a single interval set).
func (c Conjunct) With(attr int, s Set) Conjunct {
	out := Conjunct{Cols: make(map[int]Set, len(c.Cols)+1)}
	for k, v := range c.Cols {
		out.Cols[k] = v
	}
	if prev, ok := out.Cols[attr]; ok {
		out.Cols[attr] = prev.Intersect(s)
	} else {
		out.Cols[attr] = s
	}
	return out
}

// Restriction returns the per-attribute constraint C^i of Definition 4.5:
// the projection of the conjunct onto a single attribute. The second result
// is false when the conjunct does not constrain attr (C^i = "true").
func (c Conjunct) Restriction(attr int) (Set, bool) {
	s, ok := c.Cols[attr]
	return s, ok
}

// Unsatisfiable reports whether some per-attribute constraint is the empty
// set, making the whole conjunct unsatisfiable.
func (c Conjunct) Unsatisfiable() bool {
	for _, s := range c.Cols {
		if s.Empty() {
			return true
		}
	}
	return false
}

// Eval reports whether the point satisfies the conjunct. point[i] is the
// value of attribute i.
//
//hydra:hotpath
func (c Conjunct) Eval(point []int64) bool {
	for attr, s := range c.Cols {
		if !s.Contains(point[attr]) {
			return false
		}
	}
	return true
}

// EvalAt is Eval of the conjunct with every attribute a read from
// point[at[a]]: Eval of Remap's copy without making it.
func (c Conjunct) EvalAt(point []int64, at []int) bool {
	for attr, s := range c.Cols {
		if !s.Contains(point[at[attr]]) {
			return false
		}
	}
	return true
}

// Attrs returns the attributes the conjunct constrains, sorted.
func (c Conjunct) Attrs() []int {
	out := make([]int, 0, len(c.Cols))
	for a := range c.Cols {
		out = append(out, a)
	}
	sort.Ints(out)
	return out
}

// Remap returns a copy of the conjunct with every attribute id translated
// through m. It panics if an attribute is missing from m: predicates must
// only ever be remapped onto spaces that cover them.
//
//hydra:nondeterministic map-range writes distinct keys into a map; iteration order cannot reach the result
func (c Conjunct) Remap(m map[int]int) Conjunct {
	out := Conjunct{Cols: make(map[int]Set, len(c.Cols))}
	for a, s := range c.Cols {
		na, ok := m[a]
		if !ok {
			panic(fmt.Sprintf("pred: Remap missing attribute %d", a))
		}
		out.Cols[na] = s
	}
	return out
}

func (c Conjunct) String() string {
	if len(c.Cols) == 0 {
		return "true"
	}
	attrs := c.Attrs()
	parts := make([]string, len(attrs))
	for i, a := range attrs {
		parts[i] = fmt.Sprintf("a%d∈%s", a, c.Cols[a])
	}
	return strings.Join(parts, " ∧ ")
}

// DNF is a selection predicate in disjunctive normal form: the disjunction
// of its conjuncts. The empty DNF is unsatisfiable (false); use True() for
// the always-true predicate.
type DNF struct {
	Terms []Conjunct
}

// True returns the always-true predicate (a single empty conjunct).
func True() DNF { return DNF{Terms: []Conjunct{NewConjunct()}} }

// And returns the conjunction p ∧ q, distributing over the disjuncts.
// The result can have |p.Terms| × |q.Terms| conjuncts; workload predicates
// are small so this never explodes in practice.
//
//hydra:nondeterministic map-range feeds commutative With-intersections; iteration order cannot reach the result
func (p DNF) And(q DNF) DNF {
	var out []Conjunct
	for _, a := range p.Terms {
		for _, b := range q.Terms {
			c := a
			for attr, s := range b.Cols {
				c = c.With(attr, s)
			}
			if !c.Unsatisfiable() {
				out = append(out, c)
			}
		}
	}
	return DNF{Terms: out}
}

// Or returns the disjunction p ∨ q.
func (p DNF) Or(q DNF) DNF {
	out := make([]Conjunct, 0, len(p.Terms)+len(q.Terms))
	out = append(out, p.Terms...)
	out = append(out, q.Terms...)
	return DNF{Terms: out}
}

// Eval reports whether the point satisfies the predicate.
func (p DNF) Eval(point []int64) bool {
	for _, c := range p.Terms {
		if c.Eval(point) {
			return true
		}
	}
	return false
}

// EvalAt reports whether the point satisfies the predicate with every
// attribute a read from point[at[a]], as Eval of the predicate remapped
// through at does.
func (p DNF) EvalAt(point []int64, at []int) bool {
	for _, c := range p.Terms {
		if c.EvalAt(point, at) {
			return true
		}
	}
	return false
}

// Attrs returns the sorted set of attributes referenced anywhere in the
// predicate.
func (p DNF) Attrs() []int {
	seen := map[int]bool{}
	for _, c := range p.Terms {
		for a := range c.Cols {
			seen[a] = true
		}
	}
	out := make([]int, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Ints(out)
	return out
}

// Remap returns a copy of the predicate with attribute ids translated
// through m.
func (p DNF) Remap(m map[int]int) DNF {
	out := DNF{Terms: make([]Conjunct, len(p.Terms))}
	for i, c := range p.Terms {
		out.Terms[i] = c.Remap(m)
	}
	return out
}

func (p DNF) String() string {
	if len(p.Terms) == 0 {
		return "false"
	}
	parts := make([]string, len(p.Terms))
	for i, c := range p.Terms {
		parts[i] = "(" + c.String() + ")"
	}
	return strings.Join(parts, " ∨ ")
}
