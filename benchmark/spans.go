package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into the program. Spans of
// one op share a trace id; the op's root has parent 0. They are recorded
// from the benchmark's own files, around the calls into each layer — spans
// inside the program are ROADMAP item 6.
type span struct {
	Trace  int64  `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Rows   int64  `json:"rows"`
	Bytes  int64  `json:"bytes"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so traced and untraced ops run the same code.
type recorder struct {
	t0    time.Time
	spans []span
	trace int64
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// handle names an open span; the zero handle belongs to the nil recorder.
type handle struct{ idx int }

// root opens a new trace and its root span.
func (r *recorder) root(name string) handle {
	if r == nil {
		return handle{}
	}
	r.trace++
	return r.open(0, name)
}

// child opens a span under parent, in parent's trace.
func (r *recorder) child(parent handle, name string) handle {
	if r == nil {
		return handle{}
	}
	return r.open(r.spans[parent.idx].ID, name)
}

func (r *recorder) open(parent int64, name string) handle {
	r.spans = append(r.spans, span{
		Trace: r.trace, ID: int64(len(r.spans) + 1), Parent: parent, Name: name,
		Start: time.Since(r.t0).Nanoseconds(),
	})
	return handle{idx: len(r.spans) - 1}
}

func (r *recorder) end(h handle, rows, bytes int64) {
	if r == nil {
		return
	}
	s := &r.spans[h.idx]
	s.End, s.Rows, s.Bytes = time.Since(r.t0).Nanoseconds(), rows, bytes
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its direct children cover. Overlapping children are
// counted once and children are clipped to the parent's interval.
func selfTimes(spans []span) map[int64]int64 {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, edge := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// checkSpans verifies the shape the trace file promises: every trace has
// exactly one root, and every other span's parent is a span of its trace.
func checkSpans(spans []span) error {
	traceOf := make(map[int64]int64, len(spans))
	roots := make(map[int64]int)
	for _, s := range spans {
		traceOf[s.ID] = s.Trace
		n := roots[s.Trace]
		if s.Parent == 0 {
			n++
		}
		roots[s.Trace] = n
	}
	for tr, n := range roots {
		if n != 1 {
			return fmt.Errorf("trace %d has %d roots", tr, n)
		}
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		if pt, ok := traceOf[s.Parent]; !ok || pt != s.Trace {
			return fmt.Errorf("span %d (%s) has no parent %d in trace %d", s.ID, s.Name, s.Parent, s.Trace)
		}
	}
	return nil
}

// medianByName returns, per span name, the median over traces of the sum
// of value (nanoseconds) over that name's spans within one trace, in seconds.
func medianByName(spans []span, value func(span) int64) map[string]float64 {
	perTrace := make(map[string]map[int64]int64)
	for _, s := range spans {
		if perTrace[s.Name] == nil {
			perTrace[s.Name] = make(map[int64]int64)
		}
		perTrace[s.Name][s.Trace] += value(s)
	}
	out := make(map[string]float64, len(perTrace))
	for name, byTrace := range perTrace {
		v := make([]float64, 0, len(byTrace))
		for _, ns := range byTrace {
			v = append(v, float64(ns)/1e9)
		}
		out[name] = median(v)
	}
	return out
}

// medianSelfByName is medianByName over self times.
func medianSelfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	return medianByName(spans, func(s span) int64 { return self[s.ID] })
}

// medianDurationByName is medianByName over whole durations.
func medianDurationByName(spans []span) map[string]float64 {
	return medianByName(spans, func(s span) int64 { return s.End - s.Start })
}

// writeSpans writes one JSON span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
