// Package pred implements the predicate algebra Hydra's region partitioning
// is built on: closed integer intervals, disjoint interval sets, per-attribute
// constraints, conjunctive sub-constraints, and DNF selection predicates.
//
// All attribute values are int64 (the anonymizer maps non-numeric constants
// to integers before the vendor-side pipeline runs, exactly as in the paper,
// §3.1). Intervals are closed on both ends; half-open predicates such as
// "A >= 20 AND A < 60" become the closed interval [20, 59].
package pred

import (
	"fmt"
	"math"
	"strings"
)

// Interval is a closed integer interval [Lo, Hi]. An interval with Lo > Hi
// is empty.
type Interval struct {
	Lo, Hi int64
}

// DomainMin and DomainMax bound every attribute domain. They are kept well
// inside the int64 range so that boundary arithmetic (Hi+1, Lo-1) can never
// overflow.
const (
	DomainMin = math.MinInt64 / 4
	DomainMax = math.MaxInt64 / 4
)

// Full returns the interval covering the whole representable domain.
func Full() Interval { return Interval{DomainMin, DomainMax} }

// Empty reports whether the interval contains no points.
func (iv Interval) Empty() bool { return iv.Lo > iv.Hi }

// Contains reports whether v lies inside the interval.
func (iv Interval) Contains(v int64) bool { return iv.Lo <= v && v <= iv.Hi }

// Count returns the number of integer points in the interval. It saturates
// at math.MaxInt64 for intervals wider than the int64 range (which cannot
// occur for intervals inside [DomainMin, DomainMax]).
func (iv Interval) Count() int64 {
	if iv.Empty() {
		return 0
	}
	return iv.Hi - iv.Lo + 1
}

// Intersect returns the intersection of two intervals (possibly empty).
func (iv Interval) Intersect(o Interval) Interval {
	return Interval{max64(iv.Lo, o.Lo), min64(iv.Hi, o.Hi)}
}

func (iv Interval) String() string {
	if iv.Empty() {
		return "∅"
	}
	lo := "-inf"
	if iv.Lo != DomainMin {
		lo = fmt.Sprintf("%d", iv.Lo)
	}
	hi := "+inf"
	if iv.Hi != DomainMax {
		hi = fmt.Sprintf("%d", iv.Hi)
	}
	return fmt.Sprintf("[%s,%s]", lo, hi)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Set is a union of disjoint, sorted, non-adjacent closed intervals. The
// zero value is the empty set. Sets are immutable: all operations return new
// sets.
type Set struct {
	ivs []Interval
}

// NewSet builds a Set from arbitrary intervals, normalizing them into
// sorted, disjoint, non-adjacent form.
func NewSet(ivs ...Interval) Set {
	out := make([]Interval, 0, len(ivs))
	for _, iv := range ivs {
		if !iv.Empty() {
			out = append(out, iv)
		}
	}
	if len(out) == 0 {
		return Set{}
	}
	// Insertion sort: sets are tiny (a handful of intervals).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Lo < out[j-1].Lo; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	merged := out[:1]
	for _, iv := range out[1:] {
		last := &merged[len(merged)-1]
		if iv.Lo <= last.Hi+1 { // overlapping or adjacent
			if iv.Hi > last.Hi {
				last.Hi = iv.Hi
			}
		} else {
			merged = append(merged, iv)
		}
	}
	return Set{ivs: merged}
}

// FullSet returns the set covering the entire domain.
func FullSet() Set { return NewSet(Full()) }

// Point returns the singleton set {v}.
func Point(v int64) Set { return NewSet(Interval{v, v}) }

// Range returns the set for the closed interval [lo, hi].
func Range(lo, hi int64) Set { return NewSet(Interval{lo, hi}) }

// AtLeast returns the set [v, +inf).
func AtLeast(v int64) Set { return NewSet(Interval{v, DomainMax}) }

// AtMost returns the set (-inf, v].
func AtMost(v int64) Set { return NewSet(Interval{DomainMin, v}) }

// Intervals returns the underlying intervals (sorted, disjoint). The
// returned slice must not be modified.
func (s Set) Intervals() []Interval { return s.ivs }

// Empty reports whether the set contains no points.
func (s Set) Empty() bool { return len(s.ivs) == 0 }

// Contains reports whether v is a member of the set.
//
//hydra:hotpath
func (s Set) Contains(v int64) bool {
	// Binary search over sorted disjoint intervals.
	lo, hi := 0, len(s.ivs)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		iv := s.ivs[mid]
		switch {
		case v < iv.Lo:
			hi = mid - 1
		case v > iv.Hi:
			lo = mid + 1
		default:
			return true
		}
	}
	return false
}

// Min returns the smallest point of the set. It panics on the empty set:
// callers instantiate values only from non-empty regions.
func (s Set) Min() int64 {
	if s.Empty() {
		panic("pred: Min of empty set")
	}
	return s.ivs[0].Lo
}

// Max returns the largest point of the set. It panics on the empty set.
func (s Set) Max() int64 {
	if s.Empty() {
		panic("pred: Max of empty set")
	}
	return s.ivs[len(s.ivs)-1].Hi
}

// Count returns the number of integer points in the set, saturating at
// math.MaxInt64.
func (s Set) Count() int64 {
	var total int64
	for _, iv := range s.ivs {
		c := iv.Count()
		if total > math.MaxInt64-c {
			return math.MaxInt64
		}
		total += c
	}
	return total
}

// Intersect returns s ∩ o.
func (s Set) Intersect(o Set) Set { return Set{ivs: AppendIntersect(nil, s.ivs, o.ivs)} }

// Union returns s ∪ o.
func (s Set) Union(o Set) Set { return Set{ivs: AppendUnion(nil, s.ivs, o.ivs)} }

// Subtract returns s \ o.
func (s Set) Subtract(o Set) Set { return Set{ivs: AppendSubtract(nil, s.ivs, o.ivs)} }

// Classify reports how s lies against o without allocating: Disjoint when
// s ∩ o is empty, Inside when s \ o is empty and s is not, Split
// otherwise.
func (s Set) Classify(o Set) Relation { return Classify(s.ivs, o.ivs) }

// Sorted returns the set of ivs without copying them. ivs must be in a
// Set's form — non-empty intervals, sorted, disjoint and non-adjacent, as
// a Set's Intervals and the Append functions below give them — and must
// not be modified afterwards. It lets a caller keep many sets' intervals
// in one array.
func Sorted(ivs []Interval) Set { return Set{ivs: ivs} }

// The functions below compute on interval lists in a Set's form (a Set's
// Intervals) and append the result, in the same form, to dst: a caller
// that keeps many sets' intervals in one array grows it in place instead
// of allocating a set per operation. dst must not overlap a or b beyond
// its length.

// AppendIntersect appends a ∩ b to dst.
func AppendIntersect(dst, a, b []Interval) []Interval {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		iv := a[i].Intersect(b[j])
		if !iv.Empty() {
			dst = append(dst, iv)
		}
		if a[i].Hi < b[j].Hi {
			i++
		} else {
			j++
		}
	}
	return dst
}

// AppendUnion appends a ∪ b to dst.
func AppendUnion(dst, a, b []Interval) []Interval {
	from := len(dst)
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var iv Interval
		if j == len(b) || (i < len(a) && a[i].Lo <= b[j].Lo) {
			iv, i = a[i], i+1
		} else {
			iv, j = b[j], j+1
		}
		// Merge iv into the last interval when they overlap or touch.
		if n := len(dst); n > from && iv.Lo <= dst[n-1].Hi+1 {
			dst[n-1].Hi = max(dst[n-1].Hi, iv.Hi)
			continue
		}
		dst = append(dst, iv)
	}
	return dst
}

// AppendSubtract appends a \ b to dst.
func AppendSubtract(dst, a, b []Interval) []Interval {
	j := 0
	for _, iv := range a {
		// Walk iv left to right: cur is its first point not yet placed.
		for cur := iv.Lo; cur <= iv.Hi; {
			for j < len(b) && b[j].Hi < cur {
				j++
			}
			if j == len(b) || b[j].Lo > iv.Hi {
				dst = append(dst, Interval{cur, iv.Hi})
				break
			}
			if b[j].Lo > cur {
				dst = append(dst, Interval{cur, b[j].Lo - 1})
			}
			cur = b[j].Hi + 1
		}
	}
	return dst
}

// Relation is how a set lies against another.
type Relation int8

const (
	Disjoint Relation = iota // no point in common (an empty set too)
	Inside                   // non-empty, and every point inside the other
	Split                    // some points inside, some outside
)

// Classify reports how a lies against b, as Set.Classify does.
func Classify(a, b []Interval) Relation {
	in, out := false, false
	j := 0
	for _, iv := range a {
		// Walk iv as AppendSubtract does, noting what lies in and out of b.
		for cur := iv.Lo; cur <= iv.Hi; {
			for j < len(b) && b[j].Hi < cur {
				j++
			}
			if j == len(b) || b[j].Lo > iv.Hi {
				out = true
				break
			}
			if b[j].Lo > cur {
				out = true
			}
			in = true
			cur = b[j].Hi + 1
		}
		if in && out {
			return Split
		}
	}
	if in {
		return Inside
	}
	return Disjoint
}

// Complement returns the domain-wide complement of s.
func (s Set) Complement() Set {
	if s.Empty() {
		return FullSet()
	}
	var out []Interval
	cursor := int64(DomainMin)
	for _, iv := range s.ivs {
		if iv.Lo > cursor {
			out = append(out, Interval{cursor, iv.Lo - 1})
		}
		if iv.Hi == DomainMax {
			return Set{ivs: out}
		}
		cursor = iv.Hi + 1
	}
	out = append(out, Interval{cursor, DomainMax})
	return Set{ivs: out}
}

// Equal reports whether the two sets contain exactly the same points.
func (s Set) Equal(o Set) bool {
	if len(s.ivs) != len(o.ivs) {
		return false
	}
	for i := range s.ivs {
		if s.ivs[i] != o.ivs[i] {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every point of s lies in o.
func (s Set) SubsetOf(o Set) bool {
	return s.Subtract(o).Empty()
}

// Boundaries appends to dst the "cut points" of the set: for every interval
// [lo,hi], the values lo and hi+1. Cut points are the canonical
// representation of split positions used by both grid intervalization and
// marker-atom construction: cutting a domain at value c separates c-1 from c.
func (s Set) Boundaries(dst []int64) []int64 {
	for _, iv := range s.ivs {
		if iv.Lo != DomainMin {
			dst = append(dst, iv.Lo)
		}
		if iv.Hi != DomainMax {
			dst = append(dst, iv.Hi+1)
		}
	}
	return dst
}

func (s Set) String() string {
	if s.Empty() {
		return "∅"
	}
	parts := make([]string, len(s.ivs))
	for i, iv := range s.ivs {
		parts[i] = iv.String()
	}
	return strings.Join(parts, "∪")
}
