package core

import (
	"fmt"
	"math"
	"sync"

	"logsynergy/internal/nn"
	"logsynergy/internal/tensor"
)

// This file is the online scoring forward (paper §VI): F + C_anomaly on
// plain []float64 buffers, with no autodiff graph. It reads the same nn
// module weights as the tape forward and runs the same tensor kernels in
// the same op order — fresh-zero accumulator, MatMulRows, then bias; scale
// after QKᵀ; residual x+sublayer; tensor.LayerNormRow; tanh skip;
// max-over-time; 1/(1+exp(-z)) — so its scores are bit-identical to the
// sigmoid of Model.forward(train=false) (pinned by TestInferenceBitIdentical).
// Kernels run serially inside one call: callers shard whole windows across
// the tensor worker pool instead.

// scratch is one goroutine's working set for an inference forward. Every
// buffer grows to the largest batch it has served and is reused after
// that, so a steady stream of same-sized batches allocates nothing here.
type scratch struct {
	x       []float64    // [n,E] embedded windows (Detector scoring only)
	h       []float64    // [n,M] encoder state
	q, k, v []float64    // [n,M] attention projections; q is reused for Wo's output
	ctx     []float64    // [n,M] merged attention heads
	ff      []float64    // [n,FF] feed-forward hidden layer
	ffOut   []float64    // [n,M] feed-forward output
	skip    []float64    // [n,M] tanh(Fskip(x))
	z       []float64    // [n,fused] fused per-step features
	fu      []float64    // [n,fd] F_u columns of z (SUFE only)
	mlp     [2][]float64 // C_anomaly layer outputs, alternating
	kt, vh  []float64    // one head's Kᵀ [dh,T] and V [T,dh]
	att     []float64    // one head's attention row [T]
}

// scratchPool hands each scoring goroutine a scratch set. The pool lets
// the garbage collector reclaim idle sets, so a burst of large batches
// does not pin its buffers.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// grow returns buf resliced to n elements, reallocating only when its
// capacity is short. The contents are unspecified.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// linear computes dst = src@W + b over rows rows, in the tape's order: the
// product accumulates into a zeroed buffer, then the bias is added.
func linear(dst, src []float64, rows int, l *nn.Linear) {
	clear(dst)
	tensor.MatMulRows(dst, src, l.W.Value.Data, 0, rows, l.In, l.Out)
	addBias(dst, l.B.Value.Data)
}

func addBias(dst, bias []float64) {
	n := len(bias)
	for r := 0; r < len(dst); r += n {
		row := dst[r : r+n]
		for j := range row {
			row[j] += bias[j]
		}
	}
}

func relu(x []float64) {
	for i, v := range x {
		if !(v > 0) {
			x[i] = 0
		}
	}
}

// layerNorm normalizes every row of x in place.
func layerNorm(x []float64, l *nn.LayerNormModule) {
	gamma, beta := l.Gamma.Value.Data, l.Beta.Value.Data
	n := len(gamma)
	for r := 0; r < len(x); r += n {
		row := x[r : r+n]
		tensor.LayerNormRow(row, row, row, gamma, beta)
	}
}

// inferScores writes the anomaly probability of each of the b windows in
// x ([b,t,E] row-major) to out.
func (m *Model) inferScores(s *scratch, x []float64, b, t int, out []float64) {
	cfg := m.Cfg
	n := b * t
	md, fused, fd := cfg.ModelDim, cfg.fusedDim(), cfg.featureDim()
	s.h = grow(s.h, n*md)
	m.encode(s, x, b, t)

	// Skip connection past the encoder, then the fused projection of
	// [h | skip]. Feeding the two halves as two accumulating products
	// keeps each output element's reduction order identical to one
	// product over the concatenation.
	s.skip = grow(s.skip, n*md)
	linear(s.skip, x, n, m.inputProj)
	for i, v := range s.skip {
		s.skip[i] = math.Tanh(v)
	}
	s.z = grow(s.z, n*fused)
	clear(s.z)
	w := m.poolProj.W.Value.Data
	tensor.MatMulRows(s.z, s.h, w[:md*fused], 0, n, md, fused)
	tensor.MatMulRows(s.z, s.skip, w[md*fused:], 0, n, md, fused)
	addBias(s.z, m.poolProj.B.Value.Data)

	fu := s.z
	if fd != fused {
		s.fu = grow(s.fu, n*fd)
		for r := 0; r < n; r++ {
			copy(s.fu[r*fd:(r+1)*fd], s.z[r*fused:r*fused+fd])
		}
		fu = s.fu
	}

	// C_anomaly on every step's F_u, then the per-window maximum.
	cur := fu
	for i, l := range m.canomaly.Layers {
		s.mlp[i%2] = grow(s.mlp[i%2], n*l.Out)
		linear(s.mlp[i%2], cur, n, l)
		if i+1 < len(m.canomaly.Layers) {
			relu(s.mlp[i%2])
		}
		cur = s.mlp[i%2]
	}
	for i := 0; i < b; i++ {
		best := cur[i*t]
		for _, v := range cur[i*t+1 : (i+1)*t] {
			if v > best {
				best = v
			}
		}
		out[i] = 1 / (1 + math.Exp(-best))
	}
}

// encode runs the transformer encoder F over x, leaving [b*t, ModelDim]
// in s.h.
func (m *Model) encode(s *scratch, x []float64, b, t int) {
	enc := m.encoder
	md := enc.Dim
	n := b * t
	linear(s.h, x, n, enc.Proj)
	pe := enc.Positional(t).Data
	for i := 0; i < b; i++ {
		row := s.h[i*t*md : (i+1)*t*md]
		for j := range row {
			row[j] += pe[j]
		}
	}
	for _, l := range enc.Layers {
		att := attend(s, l.Attn, b, t)
		for i := range s.h {
			s.h[i] += att[i]
		}
		layerNorm(s.h, l.Norm1)

		s.ff = grow(s.ff, n*l.FFDim)
		linear(s.ff, s.h, n, l.FF1)
		relu(s.ff)
		s.ffOut = grow(s.ffOut, n*md)
		linear(s.ffOut, s.ff, n, l.FF2)
		for i := range s.h {
			s.h[i] += s.ffOut[i]
		}
		layerNorm(s.h, l.Norm2)
	}
}

// attend runs multi-head self-attention over s.h and returns its output
// projection. Each query row is multiplied as a one-row operand straight
// out of the head's column span; keys are transposed and values gathered
// per head so the right-hand operands are contiguous.
func attend(s *scratch, a *nn.MultiHeadAttention, b, t int) []float64 {
	d, heads := a.Dim, a.Heads
	dh := d / heads
	n := b * t
	s.q, s.k, s.v = grow(s.q, n*d), grow(s.k, n*d), grow(s.v, n*d)
	linear(s.q, s.h, n, a.Wq)
	linear(s.k, s.h, n, a.Wk)
	linear(s.v, s.h, n, a.Wv)
	s.ctx = grow(s.ctx, n*d)
	clear(s.ctx)
	s.kt, s.vh, s.att = grow(s.kt, dh*t), grow(s.vh, t*dh), grow(s.att, t)
	scale := 1 / math.Sqrt(float64(dh))
	for i := 0; i < b; i++ {
		for hd := 0; hd < heads; hd++ {
			for j := 0; j < t; j++ {
				off := (i*t+j)*d + hd*dh
				for p := 0; p < dh; p++ {
					s.kt[p*t+j] = s.k[off+p]
				}
				copy(s.vh[j*dh:(j+1)*dh], s.v[off:off+dh])
			}
			for r := 0; r < t; r++ {
				off := (i*t+r)*d + hd*dh
				clear(s.att)
				tensor.MatMulRows(s.att, s.q[off:off+dh], s.kt, 0, 1, dh, t)
				for j := range s.att {
					s.att[j] *= scale
				}
				tensor.SoftmaxRow(s.att, s.att)
				tensor.MatMulRows(s.ctx[off:off+dh], s.att, s.vh, 0, 1, t, dh)
			}
		}
	}
	// q is dead once every score row is computed: reuse it for Wo's output.
	linear(s.q, s.ctx, n, a.Wo)
	return s.q
}

// checkShape panics, on the calling goroutine, if windows of t events
// embedded at width e cannot be scored. Pooled workers must not panic (it
// would crash the process), so every scoring entry point validates its
// input before sharding it.
func (m *Model) checkShape(t, e int) {
	if t == 0 {
		panic("core: cannot score an empty event sequence")
	}
	if e != m.Cfg.EmbedDim {
		panic(fmt.Sprintf("core: input embedding dim %d, model expects %d", e, m.Cfg.EmbedDim))
	}
}

// splitWindows runs fn over contiguous spans of n windows on the tensor worker
// pool, handing each span its own scratch set. A forward pass is far past
// any serial-fallback threshold, so the work estimate always shards when
// there is more than one worker.
func splitWindows(n int, fn func(s *scratch, lo, hi int)) {
	tensor.ParallelRange(n, n*tensor.MinParallelWork(), func(lo, hi int) {
		s := scratchPool.Get().(*scratch)
		defer scratchPool.Put(s)
		fn(s, lo, hi)
	})
}

// scoreRows scores the n windows of a [n,t,e] row-major buffer into out.
// Each worker runs serial forwards over chunks of at most batch windows.
func (m *Model) scoreRows(x []float64, n, t, e, batch int, out []float64) {
	if n == 0 {
		return
	}
	m.checkShape(t, e)
	splitWindows(n, func(s *scratch, lo, hi int) {
		for c := lo; c < hi; c += batch {
			end := min(c+batch, hi)
			m.inferScores(s, x[c*t*e:end*t*e], end-c, t, out[c:end])
		}
	})
}
