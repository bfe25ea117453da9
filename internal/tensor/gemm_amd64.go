package tensor

// gemmRows computes the len(c)/n rows of c = a·b for a [·, k] and b [k, n]
// with the same scalar operations, in the same order, as gemmRowsGo, so
// results are bit-identical. It is in assembly only to pin the inner loop
// to a 64-byte boundary: the loop is bound by instruction fetch, and
// compiled from Go its speed varied by 20–40% with where the linker placed
// it, which moves whenever a package linked before this one changes size.
//
//go:noescape
func gemmRows(c, a, b []float64, k, n int)
