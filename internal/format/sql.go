package format

import (
	"fmt"
	"strings"
)

// SQL is INSERT statements of sqlRowsPerStmt rows each inside one
// transaction: a file to load into a database, which a directory scan
// never reads back. Statement boundaries fall on absolute row offsets,
// so its alignment makes every shard and chunk begin at a statement.
var SQL = &Format{
	name: "sql", ext: ".sql", contentType: "application/sql; charset=utf-8",
	align: func(Layout) (int, error) { return sqlRowsPerStmt, nil },
	header: func(l Layout) ([]byte, error) {
		return fmt.Appendf(nil, "-- hydra materialization of %s (%d rows)\nBEGIN;\n", l.Table, l.TotalRows), nil
	},
	footer: func(Layout) ([]byte, error) { return []byte("COMMIT;\n"), nil },
	// Every VALUES row ends in "),": endStatement turns the ',' into ';'
	// where a statement ends.
	encoder: func(l Layout) Encoder {
		e := newLineEncoder(l, "(", false, "),\n")
		e.prologue = []byte("INSERT INTO " + l.Table + " (" + strings.Join(l.Cols, ",") + ") VALUES\n")
		return e
	},
}

// sqlRowsPerStmt groups this many rows per INSERT statement.
const sqlRowsPerStmt = 500

// appendPrologue starts an sql statement where row is the first of one.
func (e *lineEncoder) appendPrologue(dst []byte, row int64) []byte {
	if e.prologue != nil && row%sqlRowsPerStmt == 0 {
		return append(dst, e.prologue...)
	}
	return dst
}

// endStatement ends an sql statement where row, the row dst ends with,
// is the last of one or of the table: its "),\n" becomes ");\n".
func (e *lineEncoder) endStatement(dst []byte, row int64) []byte {
	if e.prologue != nil && (row+1 == e.total || (row+1)%sqlRowsPerStmt == 0) {
		dst[len(dst)-2] = ';'
	}
	return dst
}
