package format

import "github.com/dsl-repro/hydra/internal/tuplegen"

// Discard drops every run after generation: the throughput-measurement
// format, which isolates span iteration and the worker pool from
// encoding and disk. It writes no bytes, so it has no file and no
// stream.
var Discard = &Format{
	name:    "discard",
	encoder: func(Layout) Encoder { return discardEncoder{} },
}

type discardEncoder struct{}

func (discardEncoder) AppendSpan(dst []byte, sp tuplegen.Span) ([]byte, error) {
	return dst, checkSpan(&sp)
}
