package sqldriver_test

import (
	"context"
	"database/sql"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"github.com/dsl-repro/hydra/internal/matgen"
	"github.com/dsl-repro/hydra/internal/pred"
	"github.com/dsl-repro/hydra/internal/scan"
	"github.com/dsl-repro/hydra/internal/serve"
	_ "github.com/dsl-repro/hydra/internal/sqldriver"
	"github.com/dsl-repro/hydra/internal/summary"
)

func testSummary() *summary.Summary {
	tRel := &summary.RelationSummary{
		Table: "T", Cols: []string{"C"},
		Rows: []summary.RelRow{
			{Vals: []int64{2}, Count: 900},
			{Vals: []int64{7}, Count: 613},
		},
		Total: 1513,
	}
	sRel := &summary.RelationSummary{
		Table: "S", Cols: []string{"A", "B"}, FKCols: []string{"t_fk"}, FKRefs: []string{"T"},
		Rows: []summary.RelRow{
			{Vals: []int64{20, 15}, FKs: []int64{1}, FKSpans: []int64{900}, Count: 3001},
			{Vals: []int64{20, 40}, FKs: []int64{901}, FKSpans: []int64{613}, Count: 2500},
			{Vals: []int64{61, 15}, FKs: []int64{1}, FKSpans: []int64{900}, Count: 2707},
		},
		Total: 8208,
	}
	return &summary.Summary{Relations: map[string]*summary.RelationSummary{"S": sRel, "T": tRel}}
}

// scanRows drains a scan into row-major tuples — the ground truth the
// SQL results must reproduce exactly, order included.
func scanRows(t *testing.T, src scan.Source, spec scan.Spec) [][]int64 {
	t.Helper()
	sc, err := src.Scan(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	var out [][]int64
	for sc.Next() {
		b := sc.Batch()
		for i := 0; i < b.N; i++ {
			row := make([]int64, len(b.Cols))
			for c := range b.Cols {
				row[c] = b.Cols[c][i]
			}
			out = append(out, row)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// sqlRows drains a db.Query result the same way.
func sqlRows(t *testing.T, db *sql.DB, query string) (cols []string, out [][]int64) {
	t.Helper()
	rows, err := db.Query(query)
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	defer rows.Close()
	if cols, err = rows.Columns(); err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
		vals := make([]int64, len(cols))
		ptrs := make([]any, len(cols))
		for i := range vals {
			ptrs[i] = &vals[i]
		}
		if err := rows.Scan(ptrs...); err != nil {
			t.Fatal(err)
		}
		out = append(out, vals)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	return cols, out
}

func diffRows(t *testing.T, name string, got, want [][]int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", name, len(got), len(want))
	}
	for i := range want {
		for c := range want[i] {
			if got[i][c] != want[i][c] {
				t.Fatalf("%s: row %d col %d = %d, want %d", name, i, c, got[i][c], want[i][c])
			}
		}
	}
}

// TestDriverBackends: the same SELECT against all three DSN schemes
// yields exactly the rows the scan API yields.
func TestDriverBackends(t *testing.T) {
	sum := testSummary()
	sumPath := filepath.Join(t.TempDir(), "fixture.summary.json")
	if err := sum.Save(sumPath); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := matgen.Materialize(sum, matgen.Options{Dir: dir, Format: "csv", Workers: 2}); err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewServer(sum, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ref := scan.NewSummarySource(sum)
	queries := map[string]scan.Spec{
		"SELECT * FROM T": {Table: "T"},
		"SELECT S_pk, A, B FROM S WHERE A = 20 AND B >= 20": {
			Table: "S", Columns: []string{"S_pk", "A", "B"},
			Filter: mustWhere(t, "A = 20 AND B >= 20"),
		},
		"SELECT t_fk, B FROM S WHERE S_pk BETWEEN 3000 AND 3100": {
			Table: "S", Columns: []string{"t_fk", "B"},
			Filter: mustWhere(t, "S_pk BETWEEN 3000 AND 3100"),
		},
		"SELECT A, B FROM S WHERE B IN (15, 40) AND A <> 61": {
			Table: "S", Columns: []string{"A", "B"},
			Filter: mustWhere(t, "B IN (15, 40) AND A <> 61"),
		},
	}

	dsns := map[string]string{
		"summary": "summary://" + sumPath,
		"dir":     "dir://" + dir,
		"remote":  "remote://" + strings.TrimPrefix(ts.URL, "http://"),
	}
	for backend, dsn := range dsns {
		t.Run(backend, func(t *testing.T) {
			db, err := sql.Open("hydra", dsn)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			for query, spec := range queries {
				want := scanRows(t, ref, spec)
				cols, got := sqlRows(t, db, query)
				if len(spec.Columns) > 0 && strings.Join(cols, ",") != strings.Join(spec.Columns, ",") {
					t.Fatalf("%s: columns %v, want %v", query, cols, spec.Columns)
				}
				diffRows(t, query, got, want)
			}
		})
	}
}

func mustWhere(t *testing.T, s string) pred.Filter {
	t.Helper()
	f, err := pred.ParseWhere(s)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestDriverPrepared: the Prepare path validates early and streams the
// same rows.
func TestDriverPrepared(t *testing.T) {
	sum := testSummary()
	sumPath := filepath.Join(t.TempDir(), "fixture.summary.json")
	if err := sum.Save(sumPath); err != nil {
		t.Fatal(err)
	}
	db, err := sql.Open("hydra", "summary://"+sumPath)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	stmt, err := db.Prepare("SELECT S_pk FROM S WHERE A = 61")
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	rows, err := stmt.Query()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	rows.Close()
	if n != 2707 {
		t.Fatalf("prepared query returned %d rows, want 2707", n)
	}
	if _, err := db.Prepare("SELECT nope FROM"); err == nil {
		t.Fatal("Prepare accepted a malformed statement")
	}
}

// TestDriverErrors: the read-only, single-table contract is enforced
// with real errors, not silent misbehavior.
func TestDriverErrors(t *testing.T) {
	sum := testSummary()
	sumPath := filepath.Join(t.TempDir(), "fixture.summary.json")
	if err := sum.Save(sumPath); err != nil {
		t.Fatal(err)
	}
	db, err := sql.Open("hydra", "summary://"+sumPath)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	for name, query := range map[string]string{
		"insert":         "INSERT INTO S VALUES (1, 2, 3)",
		"join":           "SELECT * FROM S, T",
		"unknown table":  "SELECT * FROM nope",
		"unknown column": "SELECT zz FROM S WHERE A = 1",
		"bad where":      "SELECT * FROM S WHERE A LIKE 'x'",
	} {
		if rows, err := db.Query(query); err == nil {
			rows.Close()
			t.Errorf("%s: query %q succeeded, want error", name, query)
		}
	}
	if _, err := db.Query("SELECT * FROM S WHERE A = ?", 1); err == nil {
		t.Error("placeholder query succeeded, want error")
	}
	if _, err := db.Begin(); err == nil {
		t.Error("Begin succeeded, want read-only error")
	}

	for _, dsn := range []string{"nope", "ftp://x", "summary://", "summary:///no/such/file.json"} {
		bad, err := sql.Open("hydra", dsn)
		if err == nil {
			// sql.Open defers connector errors to first use.
			err = bad.Ping()
			bad.Close()
		}
		if err == nil {
			t.Errorf("DSN %q accepted, want error", dsn)
		}
	}
}

// TestDriverFleetParams: remote:// DSNs accept resilience tuning —
// attempts, probe cadence, breaker threshold — and reject malformed
// values or fleet params on non-remote backends.
func TestDriverFleetParams(t *testing.T) {
	sum := testSummary()
	srv, err := serve.NewServer(sum, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	host := strings.TrimPrefix(ts.URL, "http://")

	db, err := sql.Open("hydra", "remote://"+host+"?attempts=2&probe=off&breaker=3&batch=500")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rows, err := db.Query("SELECT C FROM T")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	rows.Close()
	if n != 1513 {
		t.Fatalf("tuned remote DSN returned %d rows, want 1513", n)
	}

	sumPath := filepath.Join(t.TempDir(), "fixture.summary.json")
	if err := sum.Save(sumPath); err != nil {
		t.Fatal(err)
	}
	for name, dsn := range map[string]string{
		"zero attempts":  "remote://" + host + "?attempts=0",
		"bad probe":      "remote://" + host + "?probe=soon",
		"negative probe": "remote://" + host + "?probe=-1s",
		"bad breaker":    "remote://" + host + "?breaker=none",
		"fleet on local": "summary://" + sumPath + "?attempts=3",
		"probe on dir":   "dir://" + t.TempDir() + "?probe=off",
	} {
		bad, err := sql.Open("hydra", dsn)
		if err == nil {
			err = bad.Ping()
			bad.Close()
		}
		if err == nil {
			t.Errorf("%s: DSN %q accepted, want error", name, dsn)
		}
	}
	// A key the driver does not read fails at open, named: FK spread is
	// the summary's, not a parameter, and a misspelled key must not drop
	// a setting.
	for dsn, key := range map[string]string{
		"summary://" + sumPath + "?fkspread=1": "fkspread",
		"summary://" + sumPath + "?bach=4096":  "bach",
	} {
		bad, err := sql.Open("hydra", dsn)
		if err == nil {
			err = bad.Ping()
			bad.Close()
		}
		if err == nil || !strings.Contains(err.Error(), `"`+key+`"`) {
			t.Errorf("DSN %q: err = %v, want one naming %q", dsn, err, key)
		}
	}
}
