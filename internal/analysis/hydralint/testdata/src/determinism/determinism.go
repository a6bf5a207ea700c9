package determinism

import (
	"math/rand" // want `math/rand in a determinism-critical package`
	"sort"
	"time"
)

func draw() int64 { return rand.Int63() }

func stamp() int64 {
	return time.Now().UnixNano() // want `time\.Now on the regeneration path`
}

func elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want `time\.Since on the regeneration path`
}

//hydra:nondeterministic timing feeds the progress report only
func annotated(t0 time.Time) time.Duration {
	return time.Since(t0)
}

// Sorted-collect is order-insensitive: allowed without annotation.
func keysSorted(m map[string]int) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// Map copy is a set union: allowed.
func mapCopy(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Existence scan returns constants: allowed.
func hasNegative(m map[string]int) bool {
	for _, v := range m {
		if v < 0 {
			return true
		}
	}
	return false
}

func firstKey(m map[string]int) string {
	for k := range m { // want `range over map has nondeterministic order`
		return k
	}
	return ""
}

func join(m map[string]string) string {
	s := ""
	for _, v := range m { // want `range over map has nondeterministic order`
		s += v
	}
	return s
}

type problem struct{ rows [][]int }

func (p *problem) addRow(vars []int) { p.rows = append(p.rows, vars) }

// Row order is pivot order: rows appended to an LP while ranging over
// a map give a different simplex path, and vertex, on every run.
func separatorRows(p *problem, cells map[string][]int) {
	for _, vars := range cells { // want `range over map has nondeterministic order`
		p.addRow(vars)
	}
}

func separatorRowsSorted(p *problem, cells map[string][]int) {
	var keys []string
	for k := range cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		p.addRow(cells[k])
	}
}
