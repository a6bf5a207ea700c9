package main

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"github.com/dsl-repro/hydra"
)

// parseProm sums, per metric name, every series of a Prometheus text
// exposition (v0.0.4). Labels are dropped: the benchmark asks "how many
// retries happened", not on which member.
func parseProm(text string) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		name, rest := line, ""
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.LastIndexByte(line, '}')
			if j < i {
				return nil, fmt.Errorf("prom: unbalanced labels in %q", line)
			}
			name, rest = line[:i], line[j+1:]
		} else if i := strings.IndexAny(line, " \t"); i >= 0 {
			name, rest = line[:i], line[i:]
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return nil, fmt.Errorf("prom: no value in %q", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("prom: value in %q: %v", line, err)
		}
		out[name] += v
	}
	return out, nil
}

// promDelta returns after-before for each named metric; a metric absent
// from a snapshot counts as zero there.
func promDelta(before, after map[string]float64, names ...string) map[string]float64 {
	out := make(map[string]float64, len(names))
	for _, n := range names {
		out[n] = after[n] - before[n]
	}
	return out
}

// snapshotMetrics parses the process-global registry the program records into.
func snapshotMetrics() (map[string]float64, error) {
	var buf bytes.Buffer
	if err := hydra.WriteMetrics(&buf); err != nil {
		return nil, err
	}
	return parseProm(buf.String())
}
