package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestNewAndIndexing(t *testing.T) {
	a := New(2, 3)
	if a.Size() != 6 || a.Rows() != 2 || a.Cols() != 3 {
		t.Fatalf("unexpected dims: %v", a.Shape)
	}
	a.Set(5, 1, 2)
	if a.At(1, 2) != 5 {
		t.Fatalf("Set/At round trip failed")
	}
	if a.Data[5] != 5 {
		t.Fatalf("row-major layout violated: %v", a.Data)
	}
}

func TestFromSliceValidatesLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched data length")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestReshapeInference(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := a.Reshape(3, -1)
	if b.Shape[0] != 3 || b.Shape[1] != 2 {
		t.Fatalf("got shape %v", b.Shape)
	}
	b.Data[0] = 99
	if a.Data[0] != 99 {
		t.Fatal("Reshape must be a view, not a copy")
	}
}

func TestReshapeRejectsBadShape(t *testing.T) {
	a := New(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic reshaping 6 elements to 4")
		}
	}()
	a.Reshape(2, 2)
}

func TestMatMulKnownValues(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("MatMul[%d]=%v want %v", i, c.Data[i], w)
		}
	}
}

func TestMatMulIntoAccumulate(t *testing.T) {
	a := FromSlice([]float64{1, 0, 0, 1}, 2, 2)
	b := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	out := FromSlice([]float64{10, 10, 10, 10}, 2, 2)
	MatMulInto(out, a, b, true)
	want := []float64{11, 12, 13, 14}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("accumulate[%d]=%v want %v", i, out.Data[i], w)
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := Randn(rng, 1, 4, 7)
	b := Transpose(Transpose(a))
	if !a.SameShape(b) {
		t.Fatalf("shape changed: %v -> %v", a.Shape, b.Shape)
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("transpose twice must be identity")
		}
	}
}

func TestBMMMatchesLoopedMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := Randn(rng, 1, 3, 4, 5)
	b := Randn(rng, 1, 3, 5, 2)
	c := BMM(a, b)
	for i := 0; i < 3; i++ {
		ai := FromSlice(a.Data[i*20:(i+1)*20], 4, 5)
		bi := FromSlice(b.Data[i*10:(i+1)*10], 5, 2)
		ci := MatMul(ai, bi)
		for j, v := range ci.Data {
			if !almostEqual(c.Data[i*8+j], v, 1e-12) {
				t.Fatalf("batch %d element %d: %v vs %v", i, j, c.Data[i*8+j], v)
			}
		}
	}
}

func TestTransposeLast2(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, 2, 2, 3)
	b := TransposeLast2(a)
	if b.At(0, 2, 1) != a.At(0, 1, 2) {
		t.Fatal("TransposeLast2 mismatch")
	}
	if b.At(1, 0, 1) != a.At(1, 1, 0) {
		t.Fatal("TransposeLast2 mismatch in second batch")
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := Randn(rng, 3, 4, 6)
	s := SoftmaxLastDim(a)
	for r := 0; r < 4; r++ {
		sum := 0.0
		for c := 0; c < 6; c++ {
			v := s.At(r, c)
			if v <= 0 || v >= 1 {
				t.Fatalf("softmax value out of (0,1): %v", v)
			}
			sum += v
		}
		if !almostEqual(sum, 1, 1e-12) {
			t.Fatalf("row %d sums to %v", r, sum)
		}
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	a := FromSlice([]float64{1000, 1001, 1002}, 1, 3)
	s := SoftmaxLastDim(a)
	for _, v := range s.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("softmax overflowed: %v", s.Data)
		}
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{4, 5, 6}, 3)
	if got := Add(a, b).Data; got[0] != 5 || got[2] != 9 {
		t.Fatalf("Add: %v", got)
	}
	if got := Sub(b, a).Data; got[0] != 3 || got[2] != 3 {
		t.Fatalf("Sub: %v", got)
	}
	if got := Mul(a, b).Data; got[1] != 10 {
		t.Fatalf("Mul: %v", got)
	}
	if got := Scale(a, 2).Data; got[2] != 6 {
		t.Fatalf("Scale: %v", got)
	}
	if Dot(a, b) != 32 {
		t.Fatalf("Dot: %v", Dot(a, b))
	}
	if Sum(a) != 6 || Mean(a) != 2 {
		t.Fatalf("Sum/Mean: %v %v", Sum(a), Mean(a))
	}
}

func TestAddScaledInPlace(t *testing.T) {
	a := FromSlice([]float64{1, 1}, 2)
	b := FromSlice([]float64{2, 3}, 2)
	AddScaledInPlace(a, b, 0.5)
	if a.Data[0] != 2 || a.Data[1] != 2.5 {
		t.Fatalf("got %v", a.Data)
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ for random matrices.
func TestMatMulTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a := Randn(rng, 1, m, k)
		b := Randn(rng, 1, k, n)
		lhs := Transpose(MatMul(a, b))
		rhs := MatMul(Transpose(b), Transpose(a))
		for i := range lhs.Data {
			if !almostEqual(lhs.Data[i], rhs.Data[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: softmax is invariant to adding a constant to every logit.
func TestSoftmaxShiftInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := Randn(rng, 2, 1, 5)
		shift := rng.Float64() * 10
		b := a.Clone()
		for i := range b.Data {
			b.Data[i] += shift
		}
		sa, sb := SoftmaxLastDim(a), SoftmaxLastDim(b)
		for i := range sa.Data {
			if !almostEqual(sa.Data[i], sb.Data[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxAbs(t *testing.T) {
	a := FromSlice([]float64{-3, 2, 1}, 3)
	if a.MaxAbs() != 3 {
		t.Fatalf("MaxAbs=%v", a.MaxAbs())
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	b := a.Clone()
	b.Data[0] = 9
	if a.Data[0] != 1 {
		t.Fatal("Clone must copy data")
	}
}

// naiveMatMulRows is the reference reduction order MatMulRows must keep:
// for every output element, add a[i,p]*b[p,j] for p = 0..k-1 in order,
// skipping terms whose a[i,p] is zero, each add rounded on its own.
func naiveMatMulRows(out, a, b []float64, i0, i1, k, n int) {
	for i := i0; i < i1; i++ {
		for p := 0; p < k; p++ {
			av := a[i*k+p]
			if av == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				out[i*n+j] += av * b[p*n+j]
			}
		}
	}
}

// TestMatMulRowsBitIdenticalToNaive pins the blocked kernel to the
// reference order bit for bit, over shapes that leave every remainder
// path, with zeros, signed zeros and large magnitudes in the operands and
// nonzero accumulators (including -0) in the output.
func TestMatMulRowsBitIdenticalToNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	val := func() float64 {
		switch r := rng.Intn(10); {
		case r < 3:
			return 0
		case r == 3:
			return math.Copysign(0, -1)
		case r == 4:
			return rng.NormFloat64() * 1e12
		default:
			return rng.NormFloat64()
		}
	}
	for _, m := range []int{1, 3} {
		for k := 1; k <= 11; k++ {
			for _, n := range []int{1, 3, 4, 7, 10, 16, 33} {
				a, b := make([]float64, m*k), make([]float64, k*n)
				for i := range a {
					a[i] = val()
				}
				for i := range b {
					b[i] = val()
				}
				got, want := make([]float64, m*n), make([]float64, m*n)
				for i := range got {
					got[i] = val()
					want[i] = got[i]
				}
				MatMulRows(got, a, b, 0, m, k, n)
				naiveMatMulRows(want, a, b, 0, m, k, n)
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("m=%d k=%d n=%d: element %d is %v, reference %v", m, k, n, i, got[i], want[i])
					}
				}
			}
		}
	}
}
