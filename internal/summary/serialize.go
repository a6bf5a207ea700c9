package summary

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"

	"github.com/dsl-repro/hydra/internal/fsx"
)

// summaryJSON is the on-disk representation. The summary is deliberately a
// plain, versioned JSON document: it is tiny (independent of data scale, a
// few KB for TPC-DS-class workloads), human-inspectable like the paper's
// Fig. 5, and the natural hand-off artifact between the vendor-side
// generator and the engine-side tuple generator.
type summaryJSON struct {
	Version   int                         `json:"version"`
	Relations map[string]*RelationSummary `json:"relations"`
	Views     map[string]*ViewSummary     `json:"views"`
	Extra     map[string]int64            `json:"extra_tuples"`
	// omitempty: a plain summary keeps the bytes and digest it had.
	FKSpread bool `json:"fk_spread,omitempty"`
}

const formatVersion = 1

// WriteTo serializes the summary as JSON.
func (s *Summary) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	doc := summaryJSON{
		Version:   formatVersion,
		Relations: s.Relations,
		Views:     s.Views,
		Extra:     s.Extra,
		FKSpread:  s.FKSpread,
	}
	if err := enc.Encode(&doc); err != nil {
		return 0, fmt.Errorf("summary: encode: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	return 0, nil
}

// Read deserializes a summary written by WriteTo.
//
//hydra:nondeterministic validation only: when several relations are corrupt, map order picks which one the error names
func Read(r io.Reader) (*Summary, error) {
	var doc summaryJSON
	dec := json.NewDecoder(bufio.NewReader(r))
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("summary: decode: %w", err)
	}
	if doc.Version != formatVersion {
		return nil, fmt.Errorf("summary: unsupported format version %d", doc.Version)
	}
	s := &Summary{
		Relations: doc.Relations,
		Views:     doc.Views,
		Extra:     doc.Extra,
		FKSpread:  doc.FKSpread,
	}
	if s.Relations == nil {
		return nil, fmt.Errorf("summary: document has no relations")
	}
	for name, rs := range s.Relations {
		var total int64
		for i, row := range rs.Rows {
			if row.Count < 0 {
				return nil, fmt.Errorf("summary: relation %s has negative count", name)
			}
			if s.FKSpread && (len(row.FKSpans) != len(row.FKs) || slices.ContainsFunc(row.FKSpans, func(n int64) bool { return n < 1 })) {
				return nil, fmt.Errorf("summary: spread relation %s row %d needs one FK span >= 1 per FK, has %v", name, i, row.FKSpans)
			}
			total += row.Count
		}
		if rs.Total != total {
			return nil, fmt.Errorf("summary: relation %s total %d != row sum %d", name, rs.Total, total)
		}
	}
	return s, nil
}

// Save writes the summary to a file, crash-safely: the document lands in
// a temp file renamed into place, so an interrupted save never leaves a
// truncated summary behind.
func (s *Summary) Save(path string) error {
	return fsx.WriteAtomic(path, func(w io.Writer) error {
		_, err := s.WriteTo(w)
		return err
	})
}

// Load reads a summary from a file.
func Load(path string) (*Summary, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
