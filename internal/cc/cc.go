// Package cc defines cardinality constraints (CCs), the declarative
// mechanism of Arasu et al. that Hydra consumes (§2.2): each CC states that
// a selection over a relation or PK-FK join expression produced a known
// number of rows at the client. It also implements the "Parser" of the
// architecture diagram (Fig. 2): converting annotated query plans into
// equivalent CCs.
package cc

import (
	"fmt"
	"sort"

	"github.com/dsl-repro/hydra/internal/pred"
	"github.com/dsl-repro/hydra/internal/schema"
)

// CC is one cardinality constraint ⟨σ, k⟩ over the view of Root: the
// predicate references non-key attributes of Root and of relations Root
// (transitively) references — exactly the attribute closure the
// preprocessor turns into Root's view. Attribute i of Pred refers to
// Attrs[i].
type CC struct {
	// Root is the relation whose view this CC constrains (for a join
	// expression R ⋈ S ⋈ T along FK edges, the relation that references
	// all others, i.e. R).
	Root string
	// Attrs lists the qualified attributes the predicate mentions; DNF
	// attribute ids index into this slice.
	Attrs []schema.AttrRef
	// Pred is the selection predicate; pred.True() for pure size
	// constraints such as |R| = k.
	Pred pred.DNF
	// Count is the output cardinality observed at the client.
	Count int64
	// Name identifies the CC for diagnostics, e.g. "q17/join[2]".
	Name string
}

// IsSize reports whether the CC is a pure relation-size constraint: a
// predicate equivalent to true (at least one term, none constraining any
// attribute). An EMPTY predicate is false — the constraint "no rows match"
// — not a size constraint; conflating the two would let a zero-count
// filter CC overwrite the relation's total.
func (c *CC) IsSize() bool {
	if len(c.Pred.Terms) == 0 {
		return false
	}
	for _, t := range c.Pred.Terms {
		if len(t.Cols) != 0 {
			return false
		}
	}
	return true
}

func (c *CC) String() string {
	if c.IsSize() {
		return fmt.Sprintf("|%s| = %d", c.Root, c.Count)
	}
	return fmt.Sprintf("|σ[%v](%s_view)| = %d", c.Pred, c.Root, c.Count)
}

// Validate checks internal consistency against the schema: the root table
// exists, every attribute exists on its table, every referenced table is in
// the root's transitive FK closure, and the count is non-negative.
func (c *CC) Validate(s *schema.Schema) error {
	return c.validate(s, map[string]map[string]bool{})
}

// validate is Validate with the FK closures of the roots checked so far,
// by root name; it adds c's root's.
func (c *CC) validate(s *schema.Schema, closures map[string]map[string]bool) error {
	closure, ok := closures[c.Root]
	if !ok {
		root, ok := s.Table(c.Root)
		if !ok {
			return fmt.Errorf("cc %s: unknown root table %q", c.Name, c.Root)
		}
		closure = map[string]bool{c.Root: true}
		for _, t := range s.TransitiveRefs(root) {
			closure[t.Name] = true
		}
		closures[c.Root] = closure
	}
	for _, a := range c.Attrs {
		if !closure[a.Table] {
			return fmt.Errorf("cc %s: attribute %s is outside the FK closure of %s", c.Name, a, c.Root)
		}
		tab := s.MustTable(a.Table)
		if _, ok := tab.Col(a.Col); !ok {
			return fmt.Errorf("cc %s: unknown column %s", c.Name, a)
		}
	}
	for _, t := range c.Pred.Terms {
		for id := range t.Cols {
			if id < 0 || id >= len(c.Attrs) {
				return fmt.Errorf("cc %s: predicate references attr id %d outside Attrs", c.Name, id)
			}
		}
	}
	if c.Count < 0 {
		return fmt.Errorf("cc %s: negative count %d", c.Name, c.Count)
	}
	return nil
}

// Workload is a named set of CCs against one schema, the unit shipped from
// client to vendor.
type Workload struct {
	Name string
	CCs  []CC
}

// Validate validates every CC, as CC.Validate does, and builds each
// root's FK closure once.
func (w *Workload) Validate(s *schema.Schema) error {
	closures := map[string]map[string]bool{}
	for i := range w.CCs {
		if err := w.CCs[i].validate(s, closures); err != nil {
			return err
		}
	}
	return nil
}

// ByRoot groups the workload's CCs by root relation, in deterministic
// order.
func (w *Workload) ByRoot() map[string][]*CC {
	out := map[string][]*CC{}
	for i := range w.CCs {
		c := &w.CCs[i]
		out[c.Root] = append(out[c.Root], c)
	}
	return out
}

// Roots returns the sorted relation names appearing as CC roots.
func (w *Workload) Roots() []string {
	seen := map[string]bool{}
	for i := range w.CCs {
		seen[w.CCs[i].Root] = true
	}
	out := make([]string, 0, len(seen))
	for r := range seen {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// Dedupe removes exact duplicate CCs (same root, predicate shape, count),
// which arise when multiple workload queries share sub-plans. The paper's
// WLc "131 distinct queries → 351 CCs" counts post-dedup constraints.
func (w *Workload) Dedupe() {
	seen := map[string]bool{}
	var out []CC
	for _, c := range w.CCs {
		key := fmt.Sprintf("%s|%v|%v|%d", c.Root, c.Attrs, c.Pred, c.Count)
		if !seen[key] {
			seen[key] = true
			out = append(out, c)
		}
	}
	w.CCs = out
}

// CountHistogram buckets CC counts by order of magnitude: bucket i holds
// the number of CCs with count in [10^i, 10^(i+1)); bucket 0 also includes
// counts of 0 and 1. This is the presentation of the paper's Figures 9 and
// 16 (cardinality distribution on a log scale).
func (w *Workload) CountHistogram() []int {
	var buckets []int
	for i := range w.CCs {
		k := w.CCs[i].Count
		b := 0
		for k >= 10 {
			k /= 10
			b++
		}
		for len(buckets) <= b {
			buckets = append(buckets, 0)
		}
		buckets[b]++
	}
	return buckets
}
