package tensor

import (
	"fmt"
	"math"
)

// Add returns a + b element-wise. Shapes must match exactly.
func Add(a, b *Tensor) *Tensor {
	mustSameShape("Add", a, b)
	out := New(a.Shape...)
	ParallelRange(len(a.Data), len(a.Data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.Data[i] = a.Data[i] + b.Data[i]
		}
	})
	return out
}

// Sub returns a - b element-wise.
func Sub(a, b *Tensor) *Tensor {
	mustSameShape("Sub", a, b)
	out := New(a.Shape...)
	ParallelRange(len(a.Data), len(a.Data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.Data[i] = a.Data[i] - b.Data[i]
		}
	})
	return out
}

// Mul returns the element-wise (Hadamard) product.
func Mul(a, b *Tensor) *Tensor {
	mustSameShape("Mul", a, b)
	out := New(a.Shape...)
	ParallelRange(len(a.Data), len(a.Data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.Data[i] = a.Data[i] * b.Data[i]
		}
	})
	return out
}

// Scale returns a*s.
func Scale(a *Tensor, s float64) *Tensor {
	out := New(a.Shape...)
	ParallelRange(len(a.Data), len(a.Data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.Data[i] = a.Data[i] * s
		}
	})
	return out
}

// AddInPlace accumulates src into dst (dst += src).
func AddInPlace(dst, src *Tensor) {
	mustSameShape("AddInPlace", dst, src)
	ParallelRange(len(dst.Data), len(dst.Data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst.Data[i] += src.Data[i]
		}
	})
}

// AddScaledInPlace accumulates s*src into dst.
func AddScaledInPlace(dst *Tensor, src *Tensor, s float64) {
	mustSameShape("AddScaledInPlace", dst, src)
	ParallelRange(len(dst.Data), len(dst.Data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst.Data[i] += s * src.Data[i]
		}
	})
}

// MatMul returns the matrix product of 2-D tensors a [m,k] and b [k,n].
func MatMul(a, b *Tensor) *Tensor {
	a.mustDims(2)
	b.mustDims(2)
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %v x %v", a.Shape, b.Shape))
	}
	out := New(m, n)
	// Fresh buffers are already zero; accumulate into them directly.
	matMulInto(out.Data, a.Data, b.Data, m, k, n, true)
	return out
}

// MatMulInto computes out += a@b when accumulate, else out = a@b, reusing
// out's storage. All operands are 2-D with compatible shapes.
func MatMulInto(out, a, b *Tensor, accumulate bool) {
	a.mustDims(2)
	b.mustDims(2)
	out.mustDims(2)
	m, k := a.Shape[0], a.Shape[1]
	if b.Shape[0] != k || out.Shape[0] != m || out.Shape[1] != b.Shape[1] {
		panic(fmt.Sprintf("tensor: MatMulInto shape mismatch out=%v a=%v b=%v", out.Shape, a.Shape, b.Shape))
	}
	matMulInto(out.Data, a.Data, b.Data, m, k, b.Shape[1], accumulate)
}

// matMulInto dispatches between the serial kernel and the row-sharded
// parallel path. Both produce bit-identical results: each output row is
// always computed by MatMulRows in the same per-row order, the parallel
// path merely assigns disjoint row spans to different workers.
func matMulInto(out, a, b []float64, m, k, n int, accumulate bool) {
	if !accumulate {
		clear(out[:m*n])
	}
	ParallelRange(m, 2*m*k*n, func(lo, hi int) {
		MatMulRows(out, a, b, lo, hi, k, n)
	})
}

// MatMulRows is the kernel accumulating output rows [i0,i1) of a [m,k] @
// b [k,n] into out (out += a@b on those rows). It is the single source of
// truth for matrix multiplication: serial and parallel entry points both
// land here, and the inference forward in internal/core calls it directly
// (always serially) so its products are bit-identical to the autodiff
// graph's. A single row of a strided matrix is passed as a one-row operand
// (i0=0, i1=1).
//
// Its reduction order is fixed: each output element adds a[i,p]*b[p,j]
// for p = 0..k-1 in order, skipping terms whose a[i,p] is zero, each add
// rounded on its own. The nonzero terms are applied four b rows at a time
// so the running sum stays in a register across them; that changes loads
// and stores, not the sequence of rounded adds (pinned by
// TestMatMulRowsBitIdenticalToNaive).
func MatMulRows(out, a, b []float64, i0, i1, k, n int) {
	var ps [4]int
	var as [4]float64
	for i := i0; i < i1; i++ {
		arow := a[i*k : (i+1)*k]
		orow := out[i*n : i*n+n]
		m := 0
		for p, av := range arow {
			if av == 0 {
				continue
			}
			ps[m], as[m] = p, av
			m++
			if m == 4 {
				axpy4(orow, as[0], as[1], as[2], as[3],
					b[ps[0]*n:ps[0]*n+n], b[ps[1]*n:ps[1]*n+n], b[ps[2]*n:ps[2]*n+n], b[ps[3]*n:ps[3]*n+n])
				m = 0
			}
		}
		for q := 0; q < m; q++ {
			axpy(orow, as[q], b[ps[q]*n:ps[q]*n+n])
		}
	}
}

// axpy4 computes o += a0*b0 + a1*b1 + a2*b2 + a3*b3, adding the terms to
// each element in that order.
func axpy4(o []float64, a0, a1, a2, a3 float64, b0, b1, b2, b3 []float64) {
	b0, b1, b2, b3 = b0[:len(o)], b1[:len(o)], b2[:len(o)], b3[:len(o)]
	for j := range o {
		v := o[j]
		v += a0 * b0[j]
		v += a1 * b1[j]
		v += a2 * b2[j]
		v += a3 * b3[j]
		o[j] = v
	}
}

// axpy computes o += av*b.
func axpy(o []float64, av float64, b []float64) {
	b = b[:len(o)]
	for j := range o {
		o[j] += av * b[j]
	}
}

// Transpose returns the transpose of a 2-D tensor.
func Transpose(a *Tensor) *Tensor {
	a.mustDims(2)
	m, n := a.Shape[0], a.Shape[1]
	out := New(n, m)
	ParallelRange(m, m*n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := 0; j < n; j++ {
				out.Data[j*m+i] = a.Data[i*n+j]
			}
		}
	})
	return out
}

// BMM returns the batched matrix product of 3-D tensors a [b,m,k] and
// b [b,k,n], producing [b,m,n]. The parallel path shards the flattened
// batch×row space, so small batches of tall matrices and large batches of
// small matrices both spread across all workers.
func BMM(a, b *Tensor) *Tensor {
	a.mustDims(3)
	b.mustDims(3)
	bs, m, k := a.Shape[0], a.Shape[1], a.Shape[2]
	if b.Shape[0] != bs || b.Shape[1] != k {
		panic(fmt.Sprintf("tensor: BMM shape mismatch %v x %v", a.Shape, b.Shape))
	}
	n := b.Shape[2]
	out := New(bs, m, n)
	if m == 0 || n == 0 {
		return out
	}
	// Fresh buffer: accumulate to skip redundant zeroing.
	ParallelRange(bs*m, 2*bs*m*k*n, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			q, i := r/m, r%m
			MatMulRows(out.Data[q*m*n:(q+1)*m*n], a.Data[q*m*k:(q+1)*m*k], b.Data[q*k*n:(q+1)*k*n], i, i+1, k, n)
		}
	})
	return out
}

// TransposeLast2 swaps the last two dimensions of a 3-D tensor.
func TransposeLast2(a *Tensor) *Tensor {
	a.mustDims(3)
	bs, m, n := a.Shape[0], a.Shape[1], a.Shape[2]
	out := New(bs, n, m)
	ParallelRange(bs, bs*m*n, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			src := a.Data[b*m*n:]
			dst := out.Data[b*m*n:]
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					dst[j*m+i] = src[i*n+j]
				}
			}
		}
	})
	return out
}

// SoftmaxLastDim applies a numerically stable softmax along the final
// dimension, treating all leading dimensions as independent rows.
func SoftmaxLastDim(a *Tensor) *Tensor {
	if len(a.Shape) == 0 {
		return Scalar(1)
	}
	n := a.Shape[len(a.Shape)-1]
	out := New(a.Shape...)
	if n == 0 {
		return out
	}
	rows := a.Size() / n
	// ~4 scalar ops per element (max, exp, sum, divide); exp dominates.
	ParallelRange(rows, 4*rows*n, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			SoftmaxRow(out.Data[r*n:(r+1)*n], a.Data[r*n:(r+1)*n])
		}
	})
	return out
}

// SoftmaxRow writes the numerically stable softmax of src into dst. dst
// may alias src.
func SoftmaxRow(dst, src []float64) {
	maxv := math.Inf(-1)
	for _, v := range src {
		if v > maxv {
			maxv = v
		}
	}
	sum := 0.0
	for i, v := range src {
		e := math.Exp(v - maxv)
		dst[i] = e
		sum += e
	}
	for i := range dst {
		dst[i] /= sum
	}
}

// layerNormEps keeps the layer-norm variance denominator away from zero.
const layerNormEps = 1e-5

// LayerNormRow normalizes src to zero mean and unit variance, writing the
// normalized values to xhat and gamma⊙x̂+beta to dst, and returns the row's
// inverse standard deviation. Any of dst, xhat and src may alias: every
// element of src is read before the same index is written.
func LayerNormRow(dst, xhat, src, gamma, beta []float64) float64 {
	n := len(src)
	mean := 0.0
	for _, v := range src {
		mean += v
	}
	mean /= float64(n)
	varSum := 0.0
	for _, v := range src {
		d := v - mean
		varSum += d * d
	}
	is := 1 / math.Sqrt(varSum/float64(n)+layerNormEps)
	for i, v := range src {
		xhat[i] = (v - mean) * is
		dst[i] = gamma[i]*xhat[i] + beta[i]
	}
	return is
}

// Sum returns the sum of all elements. Above the parallel threshold the sum
// is computed over fixed 4096-element blocks whose partials combine in
// block order — deterministic for a given length, within reassociation
// error of the serial left-to-right sum.
func Sum(a *Tensor) float64 {
	return parallelReduce(len(a.Data), 1, func(lo, hi int) float64 {
		s := 0.0
		for _, v := range a.Data[lo:hi] {
			s += v
		}
		return s
	})
}

// Mean returns the arithmetic mean of all elements (0 for empty tensors).
func Mean(a *Tensor) float64 {
	if a.Size() == 0 {
		return 0
	}
	return Sum(a) / float64(a.Size())
}

// Dot returns the inner product of two tensors of identical shape, using
// the same deterministic blocked reduction as Sum.
func Dot(a, b *Tensor) float64 {
	mustSameShape("Dot", a, b)
	return parallelReduce(len(a.Data), 2, func(lo, hi int) float64 {
		s := 0.0
		for i := lo; i < hi; i++ {
			s += a.Data[i] * b.Data[i]
		}
		return s
	})
}

// Norm returns the Euclidean norm of all elements.
func Norm(a *Tensor) float64 {
	return math.Sqrt(Dot(a, a))
}

func mustSameShape(op string, a, b *Tensor) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.Shape, b.Shape))
	}
}
