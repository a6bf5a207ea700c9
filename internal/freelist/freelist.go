// Package freelist keeps working memory for reuse across calls, the way
// a sync.Pool does, except that garbage collections do not empty it: a
// warm call finds the memory the last one left behind even when
// collections ran in between. It keeps at most one item per worker
// (GOMAXPROCS), and none that grew past a cap, so an outsized input's
// memory is not held for the life of the process.
package freelist

import (
	"runtime"
	"sync"
)

// List is a free list of *T. The zero value is not ready to use; make
// one with New.
type List[T any] struct {
	mu    sync.Mutex
	items []*T
	size  func(*T) int
	max   int
}

// New returns a list that keeps items whose size, as size reports it,
// is at most max.
func New[T any](size func(*T) int, max int) *List[T] {
	return &List[T]{size: size, max: max}
}

// Get returns an item from the list, or a new zero one. The caller owns
// it until it puts it back.
func (l *List[T]) Get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.items)
	if n == 0 {
		return new(T)
	}
	x := l.items[n-1]
	l.items[n-1] = nil
	l.items = l.items[:n-1]
	return x
}

// Put gives x back for a later Get, unless x grew past the list's cap or
// the list already holds an item per worker; then x is dropped.
func (l *List[T]) Put(x *T) {
	if l.size(x) > l.max {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.items) < runtime.GOMAXPROCS(0) {
		l.items = append(l.items, x)
	}
}
