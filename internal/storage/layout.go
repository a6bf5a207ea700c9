// Package storage is the paged heap-file layout behind the "disk scan"
// side of the paper's Fig. 15: a JSON header page, then fixed-size pages
// of densely packed little-endian int64 rows, zero-padded past the last
// whole row. internal/matgen's heap sink writes it and internal/scan's
// DirSource reads it; this is the geometry and header encoding they share.
package storage

import (
	"encoding/json"
	"fmt"
)

// PageSize is the heap file page size. 8 KiB matches PostgreSQL's default
// block size, keeping scan behaviour comparable to the paper's host engine.
const PageSize = 8192

const magic = "HYDRAHF1"

// header is the first page's JSON payload.
type header struct {
	Magic   string   `json:"magic"`
	Name    string   `json:"name"`
	Cols    []string `json:"cols"`
	NumRows int64    `json:"num_rows"`
}

// RowsPerPage returns how many ncols-wide rows fit in one page, or an
// error when a single row exceeds the page size.
func RowsPerPage(ncols int) (int, error) {
	if ncols <= 0 {
		return 0, fmt.Errorf("storage: relation needs at least one column")
	}
	per := PageSize / (8 * ncols)
	if per == 0 {
		return 0, fmt.Errorf("storage: row of %d columns exceeds page size", ncols)
	}
	return per, nil
}

// EncodeHeaderPage builds the header page for a heap file holding numRows
// rows: the JSON header, zero-padded to a page. Shard 0 of a parallel
// materialization emits it up front, since the summary gives the row
// count exactly before generation starts.
func EncodeHeaderPage(name string, cols []string, numRows int64) ([]byte, error) {
	h := header{Magic: magic, Name: name, Cols: cols, NumRows: numRows}
	hb, err := json.Marshal(&h)
	if err != nil {
		return nil, err
	}
	if len(hb) > PageSize {
		return nil, fmt.Errorf("storage: header too large (%d bytes)", len(hb))
	}
	page := make([]byte, PageSize)
	copy(page, hb)
	return page, nil
}
