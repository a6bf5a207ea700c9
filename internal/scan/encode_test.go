package scan

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/dsl-repro/hydra/internal/format"
	"github.com/dsl-repro/hydra/internal/matgen"
	"github.com/dsl-repro/hydra/internal/pred"
	"github.com/dsl-repro/hydra/internal/summary"
)

// encodeScanSpecs are the scans EncodeScan is pinned on: the whole
// table, a range starting inside a heap page and an sql statement, a
// projection that keeps the pk first, the pk in the middle of one, no
// pk, and a filter.
var encodeScanSpecs = []struct {
	name string
	spec Spec
}{
	{"full", Spec{Table: "S"}},
	{"mid", Spec{Table: "S", StartPK: 300, EndPK: 7000, BatchRows: 700}},
	{"pk-first", Spec{Table: "S", Columns: []string{"S_pk", "t_fk"}, StartPK: 10, BatchRows: 1000}},
	{"pk-middle", Spec{Table: "S", Columns: []string{"A", "S_pk", "t_fk"}, BatchRows: 1000}},
	{"no-pk", Spec{Table: "S", Columns: []string{"t_fk", "B"}, StartPK: 2000, BatchRows: 999}},
	{"filtered", Spec{Table: "S", Filter: pred.Col("A").Eq(20).And(pred.Col("t_fk").In(1, 700)), BatchRows: 600}},
}

// encodeScanDigests are the SHA-256s of EncodeScan's output for every
// spec, format and FK-spread setting, or the error it refuses with. They
// were cut before EncodeScan fed its batches to the encoders as runs, so
// the pin holds the bytes across that change.
var encodeScanDigests = map[string]string{
	"full/csv/spread=false":        "8208 rows 08412ec4a1df4abc90a21f860b88d878ec5dd280b0ef6ad247bc031a2db5b00c",
	"full/jsonl/spread=false":      "8208 rows 9c069672aa7055558e8520cfdb643d97bd1fe0b4ccbb1c48ae19f289283b8a01",
	"full/sql/spread=false":        "8208 rows a1223a225f20c736ecce017b06e9e0dac1905c5068651d8c447dddc6e68edd63",
	"full/heap/spread=false":       "8208 rows 8a94bb12eefab8a4fc88eba0f5e52d818cd5de08c752f8fcfc62916fd5970863",
	"full/spans/spread=false":      "8208 rows b95cbca8f903812f0c282ff956ff122ee57007ac7cf73a859f3e58bd87274125",
	"mid/csv/spread=false":         "6701 rows 318ecf34f16227a06de686292c8d7dd66890d25a9dc49aea271af571a52e56ef",
	"mid/jsonl/spread=false":       "6701 rows e14bfff539abd55bfdbeb57451c39253d35178bb0c012a08b09ffe8ca543162f",
	"mid/sql/spread=false":         "6701 rows 61cf27d1a5b8d570165cdba90779060f08ae71bfd332bc68972162b37728a831",
	"mid/heap/spread=false":        "6701 rows a1a251eabc6a522fd2d62a62169911187ee341151a1685335d7ba8bdd1cd5ebc",
	"mid/spans/spread=false":       "6701 rows cc9673e06a6744c4f4232cebb56f57a6aefae031869c13e01cbe43d241a3e0ba",
	"pk-first/csv/spread=false":    "8199 rows 7556d26e5865f11d2ebb6e9bd8b247d35c88c043199d9eca9c38bd6097df5638",
	"pk-first/jsonl/spread=false":  "8199 rows 395689d843281561737bd47039e60e2a40dd8d5941920b82de65022546e11000",
	"pk-first/sql/spread=false":    "8199 rows 082b6f4c177155933d3b9a404542dcbc35eb3ca284c2f225c4a808498b4a3134",
	"pk-first/heap/spread=false":   "8199 rows 60bdc67436751e43d6cbdca93390cb6bbcef41d669b011bd99df5c31ac270e82",
	"pk-first/spans/spread=false":  "8199 rows a134601cd422c32eb4c5fea4accc3ce19c5ed3c1540fc397f82a417a7afccfce",
	"pk-middle/csv/spread=false":   "8208 rows cc12b92164637e813aab010dfbd807d17d731b103d445b03cd96b589cb59368c",
	"pk-middle/jsonl/spread=false": "8208 rows 7a2f44682346dbd26110e0201043e04f1a8b69955654c59f45d4ed9d51712e32",
	"pk-middle/sql/spread=false":   "8208 rows 7191f19beb2dbc3181e26f6600f75104c5683f23617955b0b124b0c8d680a121",
	"pk-middle/heap/spread=false":  "8208 rows 194c2e43ba0637c0b469839fa48b1ae69e8f34d102e7b969aeb7834e6bd3d199",
	"pk-middle/spans/spread=false": "error: scan: invalid spec: format \"spans\" anchors runs at the primary key: the layout must start with S_pk (project on the reader instead)",
	"no-pk/csv/spread=false":       "6209 rows b783aff86c7c95192e9559086ce1cc27c3c393f0e18194fdf807ad59cd8daa98",
	"no-pk/jsonl/spread=false":     "6209 rows 958486e24e05bcef0fd9b2a983ac454ccc2c6aecb9e6a4780dd037d9d3f8828b",
	"no-pk/sql/spread=false":       "6209 rows eac3dc70e2fcdc69bee451f9ad628f9e581f93ab92cbce7b7b18be1e8850a7cb",
	"no-pk/heap/spread=false":      "6209 rows d466b1cf04b43c3a47a1613d249074f12fc9a05179c080e5fecb0a6f8b29fd25",
	"no-pk/spans/spread=false":     "error: scan: invalid spec: format \"spans\" anchors runs at the primary key: the layout must start with S_pk (project on the reader instead)",
	"filtered/csv/spread=false":    "3001 rows ce2af93f8d1b8ef6c4bfd8da4257b3147c476ef6e984967267d40d1422eaca1c",
	"filtered/jsonl/spread=false":  "3001 rows c8e3eeca442c5f51097063c21fb2ddf84b981d19eb008fc231aa170b3916d94a",
	"filtered/sql/spread=false":    "error: scan: invalid spec: format \"sql\" (alignment 500) cannot encode filtered scans",
	"filtered/heap/spread=false":   "error: scan: invalid spec: format \"heap\" (alignment 256) cannot encode filtered scans",
	"filtered/spans/spread=false":  "3001 rows 027f61d5abe7fd96ad7aaa504043495a9e89074d067d469b421bc9ab6f397558",
	"full/csv/spread=true":         "8208 rows 36b168217fbb9afbf35373918f5ebeefcf6fde36754bed04fcf11de76bc26014",
	"full/jsonl/spread=true":       "8208 rows 20eaa02e0446c0da2cef2c277647d575ffe6cca69b7cf9abdf0a7263028e2443",
	"full/sql/spread=true":         "8208 rows 5ac970e8a8474e224c1bbc5ce5e2d03bd889f35436211924609352415758dd6e",
	"full/heap/spread=true":        "8208 rows 9b3b7dd89d5ccf6ec0c3e201e0b7d86d8682b1a3854946edb82bcd265225cbff",
	"full/spans/spread=true":       "8208 rows d39f9985df5b79ff7f4482e732cc8179f782739befa01c20b0e1ced61b05fc71",
	"mid/csv/spread=true":          "6701 rows 6aaf5ef1a64958e6003573e330dca14ebb329e4fc3a42e9e09f148eb80012853",
	"mid/jsonl/spread=true":        "6701 rows 04ff7f7a693042da3c2b3efd0c7313b7e94adba0a4322bc98203dbcde3f8ac3e",
	"mid/sql/spread=true":          "6701 rows e3397b7ccc33b93d1c48ebbaddd83cf6de56c3fadf3a355297f10a8ba2efb647",
	"mid/heap/spread=true":         "6701 rows 2ce4f32c67b691f0ea851f5e75369226bbe93a162f62b930b770eae46f2dc4c5",
	"mid/spans/spread=true":        "6701 rows c243b8b6a5b3fddb1e40c1b7e0b47e9a7f4f953f00f1c97c15218570443c79e8",
	"pk-first/csv/spread=true":     "8199 rows 6eb795cd8fba586df1ae0c94ebf6ccb1a9c8dbbc942184bc80e6b8933fd4caf3",
	"pk-first/jsonl/spread=true":   "8199 rows cff3bd9248f46b11570b1e11c630a275a7c99a265cb676e669780c5e96f5e784",
	"pk-first/sql/spread=true":     "8199 rows d20f1d7229d6e36664b670971d134882a5ac2ec689ca3e34eb4bc56c0f2ff768",
	"pk-first/heap/spread=true":    "8199 rows fe8d827916e3ef0980e68aa9138d1713b0d3f9e56854cdbb1af393f89f55bdf5",
	"pk-first/spans/spread=true":   "8199 rows 50c165703e777b2f77d08754dde9ce94727c3b346600506ed738f4bb636d275f",
	"pk-middle/csv/spread=true":    "8208 rows d4ea2e380557f4e50292803a07adb8be187c7d1d3dd06f97955dba39023d4b47",
	"pk-middle/jsonl/spread=true":  "8208 rows 9be5c02d8734770d128603b39c3773afe5b22ee06f51402bffdf6cfb40e7550a",
	"pk-middle/sql/spread=true":    "8208 rows f15d018d82dbe5188efd30a012646afd9c82b34e8963e28a8ed97c98c3b2f5b8",
	"pk-middle/heap/spread=true":   "8208 rows 5d979f265d1603dd94d6d53c6c1be02a73f046b0488ed691680fe4f2f0c496ab",
	"pk-middle/spans/spread=true":  "error: scan: invalid spec: format \"spans\" anchors runs at the primary key: the layout must start with S_pk (project on the reader instead)",
	"no-pk/csv/spread=true":        "6209 rows 70946f6c1a3e811276d24b309ebdad1b0e519d67aa8be4d3d686dc2d2bb0b087",
	"no-pk/jsonl/spread=true":      "6209 rows 0b295b2be2f30358d7b1731e944630e40bf5d287a2c07e5a8836682c1370b82f",
	"no-pk/sql/spread=true":        "6209 rows c93aef9163cdc95f39e0cbd0b10cee3790dbddd893cd0c2de04de75bdc3f5ada",
	"no-pk/heap/spread=true":       "6209 rows 45a533e20255d3c56b6c2207daa6c56bba9c982c96f783113051c0cc60306d9a",
	"no-pk/spans/spread=true":      "error: scan: invalid spec: format \"spans\" anchors runs at the primary key: the layout must start with S_pk (project on the reader instead)",
	"filtered/csv/spread=true":     "2401 rows ab9a869461faacf02126b1f30da51b2b2639f2940a5d2492b62a72f6afd1ef21",
	"filtered/jsonl/spread=true":   "2401 rows e3205751998d929a803371f77e33ade7f50de49fb1ebc9fe45300216695c4bb4",
	"filtered/sql/spread=true":     "error: scan: invalid spec: format \"sql\" (alignment 500) cannot encode filtered scans",
	"filtered/heap/spread=true":    "error: scan: invalid spec: format \"heap\" (alignment 256) cannot encode filtered scans",
	"filtered/spans/spread=true":   "2401 rows ef3513e3c3bda00e31d0f969c6e6a8d376f549641ef421943a1782260ef00c15",
}

// memSourceOf reads the summary's relations, spread or not, into a
// MemSource: the same rows from a source that has no runs.
func memSourceOf(t *testing.T, sum *summary.Summary) *MemSource {
	t.Helper()
	src := NewSummarySource(sum)
	var tables []MemTable
	for _, name := range []string{"S", "T"} {
		sc, err := src.Scan(context.Background(), Spec{Table: name})
		if err != nil {
			t.Fatal(err)
		}
		mt := MemTable{Name: name, Cols: sc.Cols(), Data: make([][]int64, len(sc.Cols()))}
		for sc.Next() {
			for c, col := range sc.Batch().Cols {
				mt.Data[c] = append(mt.Data[c], col...)
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		sc.Close()
		tables = append(tables, mt)
	}
	mem, err := NewMemSource(tables...)
	if err != nil {
		t.Fatal(err)
	}
	return mem
}

// encodeScanDigest is the hex SHA-256 of EncodeScan's output for spec
// over src, with the row count, or the error.
func encodeScanDigest(t *testing.T, src Source, spec Spec, format string) string {
	t.Helper()
	sc, err := src.Scan(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	h := sha256.New()
	rows, err := EncodeScan(h, sc, format)
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("%d rows %s", rows, hex.EncodeToString(h.Sum(nil)))
}

// TestEncodeScanPinned: EncodeScan writes the pinned bytes for every
// format over a SummarySource and over a MemSource of the same rows,
// and keeps its refusals (heap and sql of a filtered scan, spans of a
// layout without the pk first).
func TestEncodeScanPinned(t *testing.T) {
	sum := testSummary()
	var got []string
	for _, spread := range []bool{false, true} {
		in := *sum
		in.FKSpread = spread
		mem := memSourceOf(t, &in)
		for _, tc := range encodeScanSpecs {
			spec := tc.spec
			for _, format := range []string{"csv", "jsonl", "sql", "heap", "spans"} {
				key := fmt.Sprintf("%s/%s/spread=%v", tc.name, format, spread)
				d := encodeScanDigest(t, NewSummarySource(&in), spec, format)
				if m := encodeScanDigest(t, mem, spec, format); m != d {
					t.Errorf("%s: summary source %s, mem source %s", key, d, m)
				}
				got = append(got, fmt.Sprintf("\t%q: %q,", key, d))
				if want, ok := encodeScanDigests[key]; !ok || want != d {
					t.Errorf("%s: %s, want %s", key, d, want)
				}
			}
		}
	}
	if t.Failed() {
		t.Logf("digests now:\n%s", strings.Join(got, "\n"))
	}
}

// TestProjectedSpansStreamMatchesCSV: a spans stream under a projection
// that keeps the pk first decodes to the rows of the csv stream of the
// same projection, spread and not.
func TestProjectedSpansStreamMatchesCSV(t *testing.T) {
	sum := testSummary()
	for _, cols := range [][]string{{"S_pk", "t_fk"}, {"S_pk", "B", "A"}, {"S_pk"}} {
		for _, spread := range []bool{false, true} {
			in := *sum
			in.FKSpread = spread
			stream := func(format string) []byte {
				var buf bytes.Buffer
				if _, err := matgen.Stream(context.Background(), &in, matgen.StreamOptions{
					Table: "S", Format: format, Columns: cols,
				}, &buf); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			var want [][]int64
			lines := strings.Split(strings.TrimSuffix(string(stream("csv")), "\n"), "\n")
			for _, line := range lines[1:] { // past the header
				var row []int64
				for _, cell := range strings.Split(line, ",") {
					v, err := strconv.ParseInt(cell, 10, 64)
					if err != nil {
						t.Fatal(err)
					}
					row = append(row, v)
				}
				want = append(want, row)
			}
			d := format.NewSpanDecoder(len(cols), 0, int64(len(want)), false)
			d.Read(bytes.NewReader(stream("spans")))
			got := decodeAll(t, d)
			if len(got) != len(want) {
				t.Fatalf("%v spread=%v: spans decode to %d rows, csv holds %d", cols, spread, len(got), len(want))
			}
			for i := range want {
				if !slices.Equal(got[i], want[i]) {
					t.Fatalf("%v spread=%v: row %d decodes to %v, csv holds %v", cols, spread, i, got[i], want[i])
				}
			}
		}
	}
}
