//go:build !amd64

package tensor

func gemmRows(c, a, b []float64, k, n int) { gemmRowsGo(c, a, b, k, n) }
