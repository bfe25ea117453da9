package tensor

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestNewAndAccess(t *testing.T) {
	a := New(2, 3)
	a.Set(5, 1, 2)
	if a.At(1, 2) != 5 || a.At(0, 0) != 0 {
		t.Fatal("set/at broken")
	}
	if a.Size() != 6 {
		t.Fatalf("size = %d", a.Size())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	a := New(2, 2)
	for _, fn := range []func(){
		func() { a.At(2, 0) },
		func() { a.At(0) },
		func() { a.Reshape(3, 3) },
		func() { FromSlice([]float64{1, 2}, 3) },
		func() { New(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestReshapeSharesData(t *testing.T) {
	a := New(2, 3)
	v := a.Reshape(3, 2)
	v.Set(9, 0, 1)
	if a.At(0, 1) != 9 {
		t.Fatal("reshape should share data")
	}
}

func TestCloneIndependent(t *testing.T) {
	a := New(2, 2)
	a.Set(1, 0, 0)
	b := a.Clone()
	b.Set(7, 0, 0)
	if a.At(0, 0) != 1 {
		t.Fatal("clone should not alias")
	}
}

func TestMatMul(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("matmul = %v, want %v", c.Data, want)
		}
	}
}

func TestMatMulTransposedVariants(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)

	// Aᵀ·B with A [2,3] reinterpreted: use MatMulTransA(aT-ish).
	at := FromSlice([]float64{1, 4, 2, 5, 3, 6}, 3, 2) // transpose of a
	c1 := MatMul(a, b)
	c2 := MatMulTransA(at, b)
	for i := range c1.Data {
		if math.Abs(c1.Data[i]-c2.Data[i]) > 1e-12 {
			t.Fatalf("transA mismatch: %v vs %v", c1.Data, c2.Data)
		}
	}

	bt := FromSlice([]float64{7, 9, 11, 8, 10, 12}, 2, 3) // transpose of b
	c3 := MatMulTransB(a, bt)
	for i := range c1.Data {
		if math.Abs(c1.Data[i]-c3.Data[i]) > 1e-12 {
			t.Fatalf("transB mismatch: %v vs %v", c1.Data, c3.Data)
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("incompatible matmul should panic")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

func TestConcatAndSplit(t *testing.T) {
	a := FromSlice([]float64{1, 2, 10, 20}, 2, 2)
	b := FromSlice([]float64{3, 30}, 2, 1)
	c := Concat(a, b)
	want := []float64{1, 2, 3, 10, 20, 30}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("concat = %v, want %v", c.Data, want)
		}
	}
	parts := SplitGrad(c, 2, 1)
	for i, v := range a.Data {
		if parts[0].Data[i] != v {
			t.Fatal("split part 0 mismatch")
		}
	}
	for i, v := range b.Data {
		if parts[1].Data[i] != v {
			t.Fatal("split part 1 mismatch")
		}
	}
}

func TestConcatSplitRoundTripProperty(t *testing.T) {
	f := func(bRaw, d1Raw, d2Raw uint8, seed int64) bool {
		b, d1, d2 := int(bRaw%4)+1, int(d1Raw%5)+1, int(d2Raw%5)+1
		a := New(b, d1)
		c := New(b, d2)
		for i := range a.Data {
			a.Data[i] = float64((seed+int64(i))%17) * 0.5
		}
		for i := range c.Data {
			c.Data[i] = float64((seed-int64(i))%13) * 0.25
		}
		cat := Concat(a, c)
		parts := SplitGrad(cat, d1, d2)
		for i := range a.Data {
			if parts[0].Data[i] != a.Data[i] {
				return false
			}
		}
		for i := range c.Data {
			if parts[1].Data[i] != c.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestElementwiseHelpers(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	b := FromSlice([]float64{3, 4}, 2)
	AddInPlace(a, b)
	if a.Data[0] != 4 || a.Data[1] != 6 {
		t.Fatal("add broken")
	}
	ScaleInPlace(a, 0.5)
	if a.Data[0] != 2 || a.Data[1] != 3 {
		t.Fatal("scale broken")
	}
	if got := Norm(FromSlice([]float64{3, 4}, 2)); math.Abs(got-5) > 1e-12 {
		t.Fatalf("norm = %v", got)
	}
	a.Fill(9)
	if a.Data[0] != 9 || a.Data[1] != 9 {
		t.Fatal("fill broken")
	}
	a.Zero()
	if a.Data[0] != 0 {
		t.Fatal("zero broken")
	}
}

func TestTranspose(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	at := Transpose(a)
	if at.Shape[0] != 3 || at.Shape[1] != 2 {
		t.Fatalf("transpose shape %v", at.Shape)
	}
	if at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatal("transpose values wrong")
	}
}

func TestLargeMatMulParallelMatchesSerial(t *testing.T) {
	// Big enough to trigger the parallel path; verify against definition.
	m, k, n := 80, 90, 100
	a, b := New(m, k), New(k, n)
	for i := range a.Data {
		a.Data[i] = float64(i%7) - 3
	}
	for i := range b.Data {
		b.Data[i] = float64(i%5) - 2
	}
	c := MatMul(a, b)
	for _, probe := range [][2]int{{0, 0}, {m - 1, n - 1}, {m / 2, n / 3}} {
		i, j := probe[0], probe[1]
		s := 0.0
		for p := 0; p < k; p++ {
			s += a.At(i, p) * b.At(p, j)
		}
		if math.Abs(c.At(i, j)-s) > 1e-9 {
			t.Fatalf("parallel matmul wrong at (%d,%d): %v vs %v", i, j, c.At(i, j), s)
		}
	}
	// Transposed variants agree on the same operands.
	c2 := MatMulTransA(Transpose(a), b)
	c3 := MatMulTransB(a, Transpose(b))
	for i := range c.Data {
		if math.Abs(c.Data[i]-c2.Data[i]) > 1e-9 || math.Abs(c.Data[i]-c3.Data[i]) > 1e-9 {
			t.Fatal("transposed variants disagree with MatMul")
		}
	}
}

func TestParallelFor(t *testing.T) {
	covered := make([]int, 1000)
	var mu sync.Mutex
	ParallelFor(1000, func(s, e int) {
		mu.Lock()
		defer mu.Unlock()
		for i := s; i < e; i++ {
			covered[i]++
		}
	})
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("index %d covered %d times", i, c)
		}
	}
	ParallelFor(0, func(s, e int) {
		if s != e {
			t.Fatal("empty range should be empty")
		}
	})
}

func TestRepeatRows(t *testing.T) {
	src := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 1, 2, 3)
	dst := RepeatRows(src, 4)
	if dst.Shape[0] != 4 || dst.Shape[1] != 2 || dst.Shape[2] != 3 {
		t.Fatalf("repeat shape %v", dst.Shape)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 6; j++ {
			if dst.Data[i*6+j] != src.Data[j] {
				t.Fatalf("row %d diverged at %d: %v", i, j, dst.Data[i*6+j])
			}
		}
	}
	// Cyclic broadcast: 2 source rows into 6 destination rows.
	src2 := FromSlice([]float64{1, 2, 10, 20}, 2, 2)
	dst2 := New(6, 2)
	RepeatRowsInto(dst2, src2)
	want := []float64{1, 2, 10, 20, 1, 2, 10, 20, 1, 2, 10, 20}
	for i, w := range want {
		if dst2.Data[i] != w {
			t.Fatalf("cyclic repeat[%d] = %v, want %v", i, dst2.Data[i], w)
		}
	}
}

func TestRepeatRowsIntoPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RepeatRowsInto accepted a non-multiple destination")
		}
	}()
	RepeatRowsInto(New(3, 2), FromSlice([]float64{1, 2, 3, 4}, 2, 2))
}

func TestView(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6}
	v := View(nil, data, 2, 3)
	if v.Shape[0] != 2 || v.Shape[1] != 3 {
		t.Fatalf("view shape %v", v.Shape)
	}
	v.Data[0] = 42
	if data[0] != 42 {
		t.Fatal("view does not alias the backing slice")
	}
	// Reusing the header must not allocate a new one.
	v2 := View(v, data[:4], 4)
	if v2 != v || v2.Shape[0] != 4 || len(v2.Shape) != 1 {
		t.Fatalf("view reuse: got %p/%v, want %p", v2, v2.Shape, v)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("View accepted a mismatched shape")
		}
	}()
	View(nil, data, 4, 2)
}

// gemmRows must be bit-identical to the portable kernel on every shape,
// including the zero, negative-zero, NaN and infinite entries the zero
// skip has to treat exactly as Go's == does.
func TestGemmRowsMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	special := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), 1e-300}
	val := func() float64 {
		if rng.Intn(4) == 0 {
			return special[rng.Intn(len(special))]
		}
		return rng.NormFloat64()
	}
	for trial := 0; trial < 500; trial++ {
		rows, k, n := 1+rng.Intn(5), rng.Intn(7), 1+rng.Intn(9)
		a, b := make([]float64, rows*k), make([]float64, k*n)
		for i := range a {
			a[i] = val()
		}
		for i := range b {
			b[i] = val()
		}
		got, want := make([]float64, rows*n), make([]float64, rows*n)
		for i := range got {
			got[i], want[i] = val(), val() // both kernels must overwrite
		}
		gemmRows(got, a, b, k, n)
		gemmRowsGo(want, a, b, k, n)
		for i := range got {
			// NaN payloads are unspecified (the compiler's operand order
			// decides which one survives), so any NaN matches any NaN.
			bothNaN := math.IsNaN(got[i]) && math.IsNaN(want[i])
			if !bothNaN && math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("rows=%d k=%d n=%d: c[%d] = %v (%x), want %v (%x)",
					rows, k, n, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
}
