package exp

import (
	"bytes"
	"strings"
	"testing"
)

// tinyEnv builds the smallest environment that exercises every experiment
// path; the full-scale runs happen through cmd/hydra-bench and the root
// benchmarks.
func tinyEnv(t *testing.T) *Env {
	t.Helper()
	env, err := NewEnv(Config{
		SF:         0.02,
		Seed:       42,
		QueriesWLc: 25,
		QueriesWLs: 15,
		QueriesJOB: 20,
		Dir:        t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness is slow; skipped with -short")
	}
	env := tinyEnv(t)
	for _, r := range Runners() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			tab, err := r.Run(env)
			if err != nil {
				t.Fatalf("%s: %v", r.ID, err)
			}
			if tab.ID != r.ID {
				t.Fatalf("table id %q != runner id %q", tab.ID, r.ID)
			}
			if len(tab.Rows) == 0 {
				t.Fatalf("%s produced no rows", r.ID)
			}
			var buf bytes.Buffer
			tab.Fprint(&buf)
			if !strings.Contains(buf.String(), tab.Title) {
				t.Fatal("rendered table missing title")
			}
			t.Logf("\n%s", buf.String())
		})
	}
}

func TestRunUnknownID(t *testing.T) {
	env := &Env{}
	if _, err := Run(env, "nope"); err == nil {
		t.Fatal("unknown experiment id must error")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.SF <= 0 || c.Seed == 0 || c.QueriesWLc != 131 || c.QueriesJOB != 260 {
		t.Fatalf("defaults wrong: %+v", c)
	}
}

// TestFig12Pinned pins Figure 12 at the default configuration (SF 0.2,
// seed 42, WLc-131): the LP variables of each charted relation under
// region partitioning, and the grid cells DataSynth would need. Both
// move only when the formulation's decomposition, marker atoms or
// partitioning do.
func TestFig12Pinned(t *testing.T) {
	env, err := NewEnv(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := Fig12(env)
	if err != nil {
		t.Fatal(err)
	}
	want := [][3]string{ // relation, Hydra regions, DataSynth grid cells
		{"catalog_sales", "3099", "4869"},
		{"store_sales", "8028", "10578"},
		{"web_sales", "516", "611"},
		{"item", "8", "16"},
		{"customer", "16", "26"},
		{"date_dim", "8", "18"},
	}
	if len(tab.Rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(tab.Rows), len(want))
	}
	for i, row := range tab.Rows {
		if got := [3]string{row[0], row[1], row[2]}; got != want[i] {
			t.Errorf("row %d: %v, want %v", i, got, want[i])
		}
	}
}
