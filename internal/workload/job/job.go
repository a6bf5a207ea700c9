// Package job is the JOB-like benchmark substrate of §7.6: a schema
// mirroring the Join Order Benchmark's IMDB layout (a central title
// dimension, link/fact tables such as cast_info and movie_info, and
// heavily skewed real-world-style value distributions), plus a 260-query
// workload whose CC cardinalities span many orders of magnitude (Fig. 16).
//
// The substrate exists to show Hydra's behaviour is not a TPC-DS artifact:
// the schema is snowflake rather than star, queries are chains through
// title, and the skew makes constraint counts wildly uneven.
package job

import (
	"fmt"
	"math"

	"github.com/dsl-repro/hydra/internal/engine"
	"github.com/dsl-repro/hydra/internal/pred"
	"github.com/dsl-repro/hydra/internal/schema"
	"github.com/dsl-repro/hydra/internal/workload"
)

// Config parameterizes the substrate.
type Config struct {
	// SF scales row counts; SF=1 ≈ 700k tuples.
	SF float64
	// Seed drives data and workload generation.
	Seed int64
}

func (c Config) sf() float64 {
	if c.SF <= 0 {
		return 1
	}
	return c.SF
}

// DefaultQueries matches the paper's JOB workload size.
const DefaultQueries = 260

type colDef struct {
	name     string
	min, max int64
	dist     byte
	p        float64
}

type tabDef struct {
	name string
	rows float64
	cols []colDef
	fks  []schema.ForeignKey
}

func fk(col, ref string) schema.ForeignKey { return schema.ForeignKey{FKCol: col, Ref: ref} }

var defs = []tabDef{
	{name: "kind_type", rows: 7, cols: []colDef{{"kind", 0, 6, 'u', 0}}},
	{name: "company_type", rows: 4, cols: []colDef{{"ct_kind", 0, 3, 'u', 0}}},
	{name: "info_type", rows: 113, cols: []colDef{{"it_info", 0, 112, 'u', 0}}},
	{name: "role_type", rows: 12, cols: []colDef{{"role", 0, 11, 'u', 0}}},
	{name: "keyword", rows: 13417, cols: []colDef{{"k_group", 0, 999, 'z', 0.8}}},
	{name: "company_name", rows: 2349, cols: []colDef{
		{"cn_country_code", 0, 120, 'z', 0.75}, {"cn_name_hash", 0, 999999, 'u', 0},
	}},
	{name: "name", rows: 41675, cols: []colDef{
		{"n_gender", 0, 2, 'z', 0.3}, {"n_birth_year", 1850, 2010, 'n', 0},
	}},
	{name: "title", rows: 25283, cols: []colDef{
		{"t_production_year", 1880, 2019, 'z', 0.35},
		{"t_runtime", 1, 500, 'n', 0},
		{"t_series_id", 0, 9999, 'z', 0.8},
	}, fks: []schema.ForeignKey{fk("t_kind_id", "kind_type")}},
	{name: "movie_companies", rows: 26091, cols: []colDef{
		{"mc_note_kind", 0, 9, 'z', 0.5},
	}, fks: []schema.ForeignKey{
		fk("mc_movie_id", "title"), fk("mc_company_id", "company_name"),
		fk("mc_company_type_id", "company_type"),
	}},
	{name: "movie_info", rows: 148359, cols: []colDef{
		{"mi_info_bucket", 0, 9999, 'z', 0.85},
	}, fks: []schema.ForeignKey{
		fk("mi_movie_id", "title"), fk("mi_info_type_id", "info_type"),
	}},
	{name: "movie_info_idx", rows: 13800, cols: []colDef{
		{"mii_info_bucket", 0, 100, 'z', 0.6},
	}, fks: []schema.ForeignKey{
		fk("mii_movie_id", "title"), fk("mii_info_type_id", "info_type"),
	}},
	{name: "movie_keyword", rows: 45306, cols: []colDef{
		{"mk_weight", 0, 99, 'z', 0.7},
	}, fks: []schema.ForeignKey{
		fk("mk_movie_id", "title"), fk("mk_keyword_id", "keyword"),
	}},
	{name: "cast_info", rows: 362473, cols: []colDef{
		{"ci_nr_order", 0, 999, 'z', 0.8},
	}, fks: []schema.ForeignKey{
		fk("ci_movie_id", "title"), fk("ci_person_id", "name"),
		fk("ci_role_id", "role_type"),
	}},
	{name: "person_info", rows: 29835, cols: []colDef{
		{"pi_info_bucket", 0, 999, 'z', 0.8},
	}, fks: []schema.ForeignKey{
		fk("pi_person_id", "name"), fk("pi_info_type_id", "info_type"),
	}},
}

var dimNames = map[string]bool{
	"kind_type": true, "company_type": true, "info_type": true,
	"role_type": true, "keyword": true, "company_name": true,
	"name": true, "title": true,
}

// LinkTables lists the fact/link tables queries are rooted at.
func LinkTables() []string {
	return []string{"cast_info", "movie_info", "movie_keyword", "movie_companies", "movie_info_idx", "person_info"}
}

// Schema builds the substrate schema at the configured scale.
func Schema(cfg Config) *schema.Schema {
	sf := cfg.sf()
	tables := make([]*schema.Table, 0, len(defs))
	for _, d := range defs {
		t := &schema.Table{Name: d.name, FKs: append([]schema.ForeignKey(nil), d.fks...)}
		for _, c := range d.cols {
			t.Cols = append(t.Cols, schema.Column{Name: c.name, Min: c.min, Max: c.max})
		}
		scale := sf
		if dimNames[d.name] {
			scale = math.Sqrt(sf)
			if scale > sf && sf >= 1 {
				scale = sf
			}
		}
		rows := int64(math.Round(d.rows * scale))
		if rows < 4 {
			rows = 4
		}
		t.RowCount = rows
		tables = append(tables, t)
	}
	return schema.MustNew(tables...)
}

// GenerateDB populates the client database with skew-heavy distributions.
func GenerateDB(s *schema.Schema, cfg Config) (*engine.Database, error) {
	defByName := map[string]tabDef{}
	for _, d := range defs {
		defByName[d.name] = d
	}
	for _, t := range s.Tables {
		if _, ok := defByName[t.Name]; !ok {
			return nil, fmt.Errorf("job: unknown table %s", t.Name)
		}
	}
	g := workload.NewGen(cfg.Seed)
	return workload.Populate(s, func(t *schema.Table, c int) int64 {
		cd := defByName[t.Name].cols[c]
		return g.Draw(cd.dist, cd.p, t.Cols[c].Min, t.Cols[c].Max)
	}, func(ref *schema.Table) int64 {
		// Skewed FK fan-in: popular movies/people dominate, as in the
		// real IMDB data.
		return 1 + g.Zipf(0, ref.RowCount-1, 0.4)
	})
}

// Queries generates the 260-query JOB-like workload: chains rooted at a
// link table, joining through title (with its kind_type snowflake arm) and
// the link table's other dimension, with skew-aware range filters.
func Queries(s *schema.Schema, cfg Config, n int) []*engine.Query {
	if n <= 0 {
		n = DefaultQueries
	}
	g := workload.NewGen(cfg.Seed + 777)
	links := LinkTables()
	queries := make([]*engine.Query, 0, n)
	for qi := 0; qi < n; qi++ {
		root := links[g.Rng.Intn(len(links))]
		rt := s.MustTable(root)
		q := &engine.Query{
			Name:    fmt.Sprintf("job_q%d", qi+1),
			Root:    root,
			Filters: map[string]pred.DNF{},
		}
		// Join a subset of the link table's dimensions.
		nDims := 1 + g.Rng.Intn(len(rt.FKs))
		for _, di := range g.Pick(len(rt.FKs), nDims) {
			dim := rt.FKs[di].Ref
			q.Joins = append(q.Joins, engine.JoinStep{Table: dim, Via: root})
			dt := s.MustTable(dim)
			if g.Rng.Intn(100) < 75 {
				q.Filters[dim] = g.RangeFilter(dt, g.Rng.Intn(len(dt.Cols)))
			}
			// Snowflake: when title joins, often extend to kind_type.
			if dim == "title" && g.Rng.Intn(100) < 50 {
				q.Joins = append(q.Joins, engine.JoinStep{Table: "kind_type", Via: "title"})
				kt := s.MustTable("kind_type")
				q.Filters["kind_type"] = g.RangeFilter(kt, 0)
			}
		}
		// Root filters are common in JOB (e.g. production notes).
		if g.Rng.Intn(100) < 50 && len(rt.Cols) > 0 {
			q.Filters[root] = g.RangeFilter(rt, g.Rng.Intn(len(rt.Cols)))
		}
		queries = append(queries, q)
	}
	return queries
}
