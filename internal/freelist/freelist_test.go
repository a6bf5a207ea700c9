package freelist

import (
	"runtime"
	"testing"
)

type buf struct{ b []byte }

func newList() *List[buf] { return New(func(x *buf) int { return cap(x.b) }, 100) }

// TestKeptAcrossCollections: an item put back is the one the next Get
// returns, after garbage collections too.
func TestKeptAcrossCollections(t *testing.T) {
	l := newList()
	x := l.Get()
	x.b = make([]byte, 10)
	l.Put(x)
	runtime.GC()
	runtime.GC()
	if y := l.Get(); y != x {
		t.Fatal("the item put back was not kept")
	}
	if y := l.Get(); y == x || y.b != nil {
		t.Fatal("an empty list must return a new zero item")
	}
}

// TestDropsOversized: an item larger than the cap is not kept.
func TestDropsOversized(t *testing.T) {
	l := newList()
	x := l.Get()
	x.b = make([]byte, 101)
	l.Put(x)
	if y := l.Get(); y == x {
		t.Fatal("an item past the cap was kept")
	}
}

// TestAtMostOnePerWorker: the list keeps at most GOMAXPROCS items.
func TestAtMostOnePerWorker(t *testing.T) {
	l := newList()
	n := runtime.GOMAXPROCS(0)
	for range n + 3 {
		l.Put(new(buf))
	}
	if got := len(l.items); got != n {
		t.Fatalf("list holds %d items, want %d", got, n)
	}
}
