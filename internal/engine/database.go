// Package engine is the mini relational engine Hydra's evaluation runs on:
// the substitute for the paper's PostgreSQL v9.3 host. It executes
// annotated plans — filter and PK-FK join operators, the source of AQPs
// and hence CCs — over any scan.Source: a client database held in
// memory, a summary generating tuples on demand, a materialized
// directory, or a serve fleet. It also holds a small statistics-driven
// join-order optimizer used by the CODD metadata flow.
//
// Relations are addressed by table name, and their columns by name: pk
// <table>_pk, the non-key columns, then the FK columns, in schema
// declaration order (ColLayout).
package engine

import (
	"context"
	"fmt"

	"github.com/dsl-repro/hydra/internal/scan"
	"github.com/dsl-repro/hydra/internal/schema"
	"github.com/dsl-repro/hydra/internal/summary"
)

// Database is the set of relations a query runs against: one
// scan.Source, whose rows are pk 1..N in order.
type Database struct {
	scan.Source
}

// NewDatabase runs queries against src.
func NewDatabase(src scan.Source) *Database { return &Database{Source: src} }

// FromSummary builds a fully dynamic database over a Hydra summary: every
// scan generates its tuples from the summary, so any query executes
// without materialized data — the paper's dynamic regeneration mode.
func FromSummary(s *summary.Summary) *Database {
	return NewDatabase(scan.NewSummarySource(s))
}

// Columns reads the named columns of table whole, in the order named:
// cols[c][pk-1] holds row pk's value of names[c]. Nil names reads every
// column.
func (d *Database) Columns(table string, names []string) (cols [][]int64, err error) {
	sc, err := d.Scan(context.Background(), scan.Spec{Table: table, Columns: names})
	if err != nil {
		return nil, err
	}
	defer sc.Close()
	cols = make([][]int64, len(sc.Cols()))
	for sc.Next() {
		for c, col := range sc.Batch().Cols {
			cols[c] = append(cols[c], col...)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("engine: %s: %w", table, err)
	}
	return cols, nil
}

// ColLayout returns the column names of a schema table in layout order:
// pk, non-key columns, FK columns.
func ColLayout(t *schema.Table) []string {
	cols := make([]string, 0, 1+len(t.Cols)+len(t.FKs))
	cols = append(cols, t.Name+"_pk")
	for _, c := range t.Cols {
		cols = append(cols, c.Name)
	}
	for _, fk := range t.FKs {
		cols = append(cols, fk.FKCol)
	}
	return cols
}
