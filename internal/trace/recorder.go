package trace

import (
	"sort"
	"time"
)

// Keep reasons: why the flight recorder retained a trace. Tail-based
// sampling means the decision happens after the trace completes, when
// its duration and error status are known — the interesting traces
// (failures, the slow tail) are kept deterministically and only the
// unremarkable bulk is down-sampled.
const (
	// KeepError — the trace contains at least one errored span.
	KeepError = "error"
	// KeepSlow — the trace is among the slowest-N seen so far.
	KeepSlow = "slow"
	// KeepSampled — an unremarkable trace that won the sampling draw.
	KeepSampled = "sampled"
)

// Summary is the list-view of a retained trace: everything but the
// span records themselves.
type Summary struct {
	TraceID     string    `json:"trace_id"`
	Root        string    `json:"root"`
	Start       time.Time `json:"start"`
	DurationSec float64   `json:"duration_s"`
	Err         string    `json:"error,omitempty"`
	// Keep is the rule that retained the trace: error, slow, or sampled.
	Keep       string `json:"keep,omitempty"`
	SpansTotal int    `json:"spans_total"`
	// SpansDropped counts spans discarded past the MaxSpans bound.
	SpansDropped int `json:"spans_dropped,omitempty"`
}

// Trace is one completed, retained trace: its summary plus the span
// records, assembled into a tree rooted at the local root span.
type Trace struct {
	Summary
	// Spans is the flat record list in completion order; it is not
	// serialized — the Tree carries the same records with structure.
	Spans []*SpanRecord `json:"-"`
	Tree  *SpanRecord   `json:"tree,omitempty"`
}

// offer applies the tail-based keep rules to a freshly completed trace.
func (t *Tracer) offer(tr *Trace) {
	t.mSpans.Add(int64(tr.SpansTotal))

	t.mu.Lock()
	switch {
	case tr.Err != "":
		tr.Keep = KeepError
		t.push(tr)
	case t.keepSlowLocked(tr):
		tr.Keep = KeepSlow
	case t.rate > 0 && t.rand() < t.rate:
		tr.Keep = KeepSampled
		t.push(tr)
	default:
		t.mu.Unlock()
		t.mDropped.Inc()
		return
	}
	t.mu.Unlock()
	t.mKept[tr.Keep].Inc()
}

// push overwrites the oldest ring slot with tr. Callers hold t.mu.
func (t *Tracer) push(tr *Trace) {
	if len(t.ring) < t.ringSize {
		t.ring = append(t.ring, tr)
		return
	}
	t.ring[t.next] = tr
	t.next = (t.next + 1) % t.ringSize
}

// keepSlowLocked admits tr into the slowest-N list when it is faster
// than nothing or slower than the current minimum, evicting the
// minimum on overflow. A fresh recorder therefore keeps its first N
// traces unconditionally — handy for acceptance probes. Callers hold
// t.mu.
func (t *Tracer) keepSlowLocked(tr *Trace) bool {
	if t.slowN <= 0 {
		return false
	}
	if len(t.slow) >= t.slowN && tr.DurationSec <= t.slow[0].DurationSec {
		return false
	}
	i := sort.Search(len(t.slow), func(i int) bool {
		return t.slow[i].DurationSec >= tr.DurationSec
	})
	t.slow = append(t.slow, nil)
	copy(t.slow[i+1:], t.slow[i:])
	t.slow[i] = tr
	if len(t.slow) > t.slowN {
		copy(t.slow, t.slow[1:])
		t.slow[len(t.slow)-1] = nil
		t.slow = t.slow[:len(t.slow)-1]
	}
	return true
}

// Traces returns the recorder's retained traces, newest first. offer
// keeps each trace in exactly one place, ring or slowest-N list, so
// nothing is listed twice; fragments of one distributed trace recorded
// in this process (a client root and a StartRemote root) share a
// TraceID and are each listed.
func (t *Tracer) Traces() []*Trace {
	t.mu.Lock()
	out := make([]*Trace, 0, len(t.ring)+len(t.slow))
	out = append(append(out, t.ring...), t.slow...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start.After(out[j].Start) })
	return out
}

// Get returns the newest retained trace with the given 32-hex-digit id,
// or nil. Fragments of a distributed trace recorded by other processes
// live in those processes' recorders.
func (t *Tracer) Get(id string) *Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	var best *Trace
	for _, tr := range t.ring {
		if tr != nil && tr.TraceID == id && (best == nil || tr.Start.After(best.Start)) {
			best = tr
		}
	}
	for _, tr := range t.slow {
		if tr != nil && tr.TraceID == id && (best == nil || tr.Start.After(best.Start)) {
			best = tr
		}
	}
	return best
}
