// Package workload provides the shared machinery of Hydra's benchmark
// substrates (the TPC-DS-like and JOB-like environments of §7): seeded
// value distributions with controlled skew and correlation for client data
// generation, the in-memory client database they populate, and helpers
// for synthesizing filter predicates with a wide spread of selectivities
// — the property behind the paper's Figures 9 and 16 (CC cardinalities
// ranging from a few tuples to a billion).
package workload

import (
	"math"
	"math/rand"

	"github.com/dsl-repro/hydra/internal/engine"
	"github.com/dsl-repro/hydra/internal/pred"
	"github.com/dsl-repro/hydra/internal/scan"
	"github.com/dsl-repro/hydra/internal/schema"
)

// Gen wraps a seeded RNG with the distribution primitives the substrates
// use. It is not safe for concurrent use.
type Gen struct {
	Rng *rand.Rand
	// PoolSize bounds the number of distinct predicate boundary values
	// per column across the whole workload. Real benchmark workloads are
	// instantiated from templates, so constants repeat heavily; bounding
	// the pool reproduces that. Zero means 12.
	PoolSize int
	pools    map[poolKey][]int64
}

type poolKey struct {
	table string
	col   int
}

// NewGen returns a generator with a deterministic stream.
func NewGen(seed int64) *Gen {
	return &Gen{Rng: rand.New(rand.NewSource(seed)), pools: map[poolKey][]int64{}}
}

// boundary draws a predicate constant for (table, col) from the column's
// bounded constant pool, creating pool entries on demand.
func (g *Gen) boundary(tab *schema.Table, col int) int64 {
	size := g.PoolSize
	if size <= 0 {
		size = 12
	}
	k := poolKey{tab.Name, col}
	pool := g.pools[k]
	if len(pool) < size {
		c := tab.Cols[col]
		v := g.Uniform(c.Min, c.Max)
		pool = append(pool, v)
		g.pools[k] = pool
		return v
	}
	return pool[g.Rng.Intn(len(pool))]
}

// poolRange draws an interval whose endpoints come from the column's
// constant pool (inclusive of the domain edges).
func (g *Gen) poolRange(tab *schema.Table, col int) (int64, int64) {
	c := tab.Cols[col]
	a := g.boundary(tab, col)
	b := g.boundary(tab, col)
	if a > b {
		a, b = b, a
	}
	// Occasionally open an end to the domain edge, as one-sided
	// predicates do.
	switch g.Rng.Intn(6) {
	case 0:
		a = c.Min
	case 1:
		b = c.Max
	}
	return a, b
}

// Uniform draws uniformly from [lo, hi].
func (g *Gen) Uniform(lo, hi int64) int64 {
	if hi <= lo {
		return lo
	}
	return lo + g.Rng.Int63n(hi-lo+1)
}

// Zipf draws from [lo, hi] with a Zipf-like rank-frequency skew of
// exponent s (s≈1 heavy skew, s→0 uniform). Small ranks (values near lo)
// are the most frequent — the shape of real-world categorical columns that
// makes JOB's CC cardinalities span six orders of magnitude.
func (g *Gen) Zipf(lo, hi int64, s float64) int64 {
	n := hi - lo + 1
	if n <= 1 {
		return lo
	}
	// Inverse-CDF sampling of p(k) ∝ (k+1)^-s via rejection-free
	// approximation: u^(1/(1-s)) concentrates mass at small ranks.
	if s >= 0.999 {
		s = 0.999
	}
	u := g.Rng.Float64()
	k := int64(math.Pow(u, 1/(1-s)) * float64(n))
	if k >= n {
		k = n - 1
	}
	return lo + k
}

// Normalish draws a clamped, rounded pseudo-normal around mean with the
// given standard deviation — used for correlated numeric columns (e.g.
// price given category).
func (g *Gen) Normalish(mean, stddev, lo, hi int64) int64 {
	v := int64(math.Round(g.Rng.NormFloat64()*float64(stddev))) + mean
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v
}

// Draw draws from [lo, hi] under dist: 'z' is Zipf with exponent p, 'n'
// Normalish around the midpoint with a sixth of the range as standard
// deviation, and anything else Uniform.
func (g *Gen) Draw(dist byte, p float64, lo, hi int64) int64 {
	switch dist {
	case 'z':
		return g.Zipf(lo, hi, p)
	case 'n':
		return g.Normalish((lo+hi)/2, (hi-lo)/6, lo, hi)
	}
	return g.Uniform(lo, hi)
}

// Populate builds a client database over s, held in memory: tables in
// topological order, rows in pk order, each row's non-key columns drawn
// by col(t, c), then its FKs by fk(ref), in declaration order — a fixed
// order, so a seeded Gen behind the two makes the data a function of the
// seed.
func Populate(s *schema.Schema, col func(t *schema.Table, c int) int64, fk func(ref *schema.Table) int64) (*engine.Database, error) {
	order, err := s.TopoOrder()
	if err != nil {
		return nil, err
	}
	tables := make([]scan.MemTable, 0, len(order))
	for _, t := range order {
		mt := scan.MemTable{Name: t.Name, Cols: engine.ColLayout(t)}
		for range mt.Cols {
			mt.Data = append(mt.Data, make([]int64, t.RowCount))
		}
		fks := mt.Data[1+len(t.Cols):]
		for r := range t.RowCount {
			mt.Data[0][r] = r + 1
			for c := range t.Cols {
				mt.Data[1+c][r] = col(t, c)
			}
			for i, f := range t.FKs {
				fks[i][r] = fk(s.MustTable(f.Ref))
			}
		}
		tables = append(tables, mt)
	}
	src, err := scan.NewMemSource(tables...)
	if err != nil {
		return nil, err
	}
	return engine.NewDatabase(src), nil
}

// RangeFilter builds a single-attribute range predicate over column col of
// tab. Endpoints come from the column's bounded constant pool, so
// selectivities vary while distinct boundaries per column stay bounded
// across the workload (the template-instantiation property of real
// benchmarks that keeps Hydra's LPs at the paper's reported sizes).
func (g *Gen) RangeFilter(tab *schema.Table, col int) pred.DNF {
	lo, hi := g.poolRange(tab, col)
	return pred.DNF{Terms: []pred.Conjunct{
		pred.NewConjunct().With(col, pred.Range(lo, hi)),
	}}
}

// ConjFilter builds a conjunctive predicate over the given columns of tab.
func (g *Gen) ConjFilter(tab *schema.Table, cols []int) pred.DNF {
	conj := pred.NewConjunct()
	for _, col := range cols {
		lo, hi := g.poolRange(tab, col)
		conj = conj.With(col, pred.Range(lo, hi))
	}
	return pred.DNF{Terms: []pred.Conjunct{conj}}
}

// Pick selects k distinct elements from n (indices), deterministically per
// stream.
func (g *Gen) Pick(n, k int) []int {
	if k > n {
		k = n
	}
	return g.Rng.Perm(n)[:k]
}
