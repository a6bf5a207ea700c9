package summary_test

import (
	"bytes"
	"path/filepath"
	"testing"

	"github.com/dsl-repro/hydra/internal/serve"
	"github.com/dsl-repro/hydra/internal/summary"
)

// tinySummary is S(A) ← R(S_fk): one summary row each, R's FK spanning
// S's three rows.
func tinySummary() *summary.Summary {
	return &summary.Summary{
		Relations: map[string]*summary.RelationSummary{
			"S": {Table: "S", Cols: []string{"A"}, Rows: []summary.RelRow{{Vals: []int64{7}, Count: 3}}, Total: 3},
			"R": {Table: "R", FKCols: []string{"S_fk"}, FKRefs: []string{"S"},
				Rows: []summary.RelRow{{FKs: []int64{1}, FKSpans: []int64{3}, Count: 5}}, Total: 5},
		},
		Extra: map[string]int64{"S": 0},
	}
}

// tinyPlainJSON is tinySummary's document as written before summaries
// carried the FK-spread setting.
const tinyPlainJSON = `{"version":1,"relations":{"R":{"Table":"R","Cols":null,"FKCols":["S_fk"],"FKRefs":["S"],"Rows":[{"Vals":null,"FKs":[1],"Count":5,"FKSpans":[3]}],"Total":5},"S":{"Table":"S","Cols":["A"],"FKCols":null,"FKRefs":null,"Rows":[{"Vals":[7],"FKs":null,"Count":3,"FKSpans":null}],"Total":3}},"views":null,"extra_tuples":{"S":0}}` + "\n"

// TestFKSpreadRoundTrip: the FK-spread setting survives Save and Load, a
// plain summary serializes to the bytes it always did, and the spread
// copy of a summary has a digest of its own.
func TestFKSpreadRoundTrip(t *testing.T) {
	plain := tinySummary()
	var buf bytes.Buffer
	if _, err := plain.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != tinyPlainJSON {
		t.Fatalf("plain summary serializes to\n%s\nwant\n%s", buf.String(), tinyPlainJSON)
	}
	spread := tinySummary()
	spread.FKSpread = true
	dir := t.TempDir()
	for _, sum := range []*summary.Summary{plain, spread} {
		path := filepath.Join(dir, "summary.json")
		if err := sum.Save(path); err != nil {
			t.Fatal(err)
		}
		got, err := summary.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if got.FKSpread != sum.FKSpread {
			t.Errorf("saved FKSpread=%v, loaded %v", sum.FKSpread, got.FKSpread)
		}
	}
	dPlain, err := serve.SummaryDigest(plain)
	if err != nil {
		t.Fatal(err)
	}
	dSpread, err := serve.SummaryDigest(spread)
	if err != nil {
		t.Fatal(err)
	}
	if dPlain == dSpread {
		t.Fatalf("plain and spread summaries share digest %s", dPlain)
	}
}
