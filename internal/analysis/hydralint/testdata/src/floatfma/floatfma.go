package floatfma

type cell float64

func eliminate(row, pr []float64, f float64) {
	for j := range row {
		row[j] -= f * pr[j] // want `float product f \* pr\[j\] may fuse with the - around it`
	}
}

func eliminateRounded(row, pr []float64, f float64) {
	for j := range row {
		row[j] -= float64(f * pr[j]) // the conversion rounds the product: fine
	}
}

func axpy(a, x, y float64) float64 {
	return a*x + y // want `float product a \* x may fuse with the \+ around it`
}

func ypax(a, x, y float64) float64 {
	return y - (a * x) // want `float product a \* x may fuse with the - around it`
}

func accumulate(sum *float64, a, b float64) {
	*sum += a * b // want `float product a \* b may fuse with the \+ around it`
}

func chained(a, b, c, d float64) float64 {
	return a*b*c + d // want `float product a \* b \* c may fuse with the \+ around it`
}

func named(a, b cell, c cell) cell {
	return c + a*b // want `float product a \* b may fuse with the \+ around it`
}

func single(a, b float32, c float32) float32 {
	return a*b - c // want `float product a \* b may fuse with the - around it`
}

func roundedBoth(a, b, c, d float64) float64 {
	return float64(a*b) + float64(c*d)
}

// Products alone, quotients and integer arithmetic do not fuse.
func others(a, b, c float64, i, j, k int) (float64, float64, int) {
	p := a * b
	return p, a/b + c, i*j + k
}

// Constant products are folded by the compiler, not fused.
const scale = 2.0 * 3.0

func constant(x float64) float64 {
	return scale*4.0 + x
}
