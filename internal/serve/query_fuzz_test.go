package serve

import (
	"errors"
	"fmt"
	"net/url"
	"reflect"
	"testing"

	"github.com/dsl-repro/hydra/internal/matgen"
)

// FuzzStreamOptionsFromQuery feeds the tables endpoint's query decoder
// arbitrary bytes. It must never panic and must answer one query the
// same way twice, and whatever it accepts must make PlanStream return a
// plan or an ErrStream-wrapped error — a client mistake, never a server
// failure.
func FuzzStreamOptionsFromQuery(f *testing.F) {
	for _, seed := range []struct{ table, query string }{
		{"S", ""},
		{"S", "format=spans&offset=0&limit=100"},
		{"S", "format=csv&offset=x&limit=y"},
		{"T", "format=heap&shard=2/3&rate=1000"},
		{"S", "format=spans&fkspread=1&filter=A%3D20%3A59%3BB%3D5&columns=S_pk,t_fk"},
		{"S", "format=csv&compress=gzip&offset=-1&limit=3"},
		{"nope", "format=jsonl&info=1"},
		{"S", "batch=65537&rate=NaN&shard=0/0"},
		{"S", "format=sql&offset=17&columns=B,,A&filter=Q%3D1"},
	} {
		f.Add(seed.table, seed.query)
	}
	sum := testSummary()
	f.Fuzz(func(t *testing.T, table, query string) {
		decode := func() (*matgen.StreamOptions, error) {
			q, _ := url.ParseQuery(query) // as r.URL.Query(): malformed pairs are dropped
			return streamOptionsFromQuery(table, q)
		}
		opts, err := decode()
		again, err2 := decode()
		if fmt.Sprint(err) != fmt.Sprint(err2) || !reflect.DeepEqual(opts, again) {
			t.Fatalf("query %q decoded twice: %+v, %v then %+v, %v", query, opts, err, again, err2)
		}
		if err != nil {
			return
		}
		if _, err := matgen.PlanStream(sum, *opts); err != nil && !errors.Is(err, matgen.ErrStream) {
			t.Fatalf("query %q: accepted, but PlanStream failed with %v, not an ErrStream", query, err)
		}
	})
}
