package nn

import (
	"fmt"

	"logsynergy/internal/tensor"
)

// SoftmaxLastDim applies a softmax along the final dimension.
func (g *Graph) SoftmaxLastDim(a *Node) *Node {
	out := tensor.SoftmaxLastDim(a.Value)
	n := a.Value.Shape[len(a.Value.Shape)-1]
	rows := a.Value.Size() / n
	return g.add(out, func(gr *tensor.Tensor) {
		ga := tensor.New(a.Value.Shape...)
		for r := 0; r < rows; r++ {
			y := out.Data[r*n : (r+1)*n]
			gy := gr.Data[r*n : (r+1)*n]
			dot := 0.0
			for i := range y {
				dot += y[i] * gy[i]
			}
			dst := ga.Data[r*n : (r+1)*n]
			for i := range y {
				dst[i] = y[i] * (gy[i] - dot)
			}
		}
		a.accumulate(ga)
	}, a)
}

// LayerNorm normalizes the final dimension of x to zero mean and unit
// variance, then applies a learned affine transform gamma*x̂ + beta.
// gamma and beta are vectors matching the final dimension.
func (g *Graph) LayerNorm(x, gamma, beta *Node) *Node {
	n := gamma.Value.Size()
	if beta.Value.Size() != n || x.Value.Shape[len(x.Value.Shape)-1] != n {
		panic(fmt.Sprintf("nn: LayerNorm size mismatch x=%v gamma=%d beta=%d",
			x.Value.Shape, n, beta.Value.Size()))
	}
	rows := x.Value.Size() / n
	out := tensor.New(x.Value.Shape...)
	xhat := tensor.New(x.Value.Shape...)
	invStd := make([]float64, rows)
	for r := 0; r < rows; r++ {
		invStd[r] = tensor.LayerNormRow(out.Data[r*n:(r+1)*n], xhat.Data[r*n:(r+1)*n],
			x.Value.Data[r*n:(r+1)*n], gamma.Value.Data, beta.Value.Data)
	}
	return g.add(out, func(gr *tensor.Tensor) {
		if gamma.needsGrad {
			gg := tensor.New(n)
			for r := 0; r < rows; r++ {
				for i := 0; i < n; i++ {
					gg.Data[i] += gr.Data[r*n+i] * xhat.Data[r*n+i]
				}
			}
			gamma.accumulate(gg)
		}
		if beta.needsGrad {
			gb := tensor.New(n)
			for r := 0; r < rows; r++ {
				for i := 0; i < n; i++ {
					gb.Data[i] += gr.Data[r*n+i]
				}
			}
			beta.accumulate(gb)
		}
		if x.needsGrad {
			gx := tensor.New(x.Value.Shape...)
			fn := float64(n)
			for r := 0; r < rows; r++ {
				gy := gr.Data[r*n : (r+1)*n]
				xh := xhat.Data[r*n : (r+1)*n]
				// h = gamma ⊙ upstream gradient for this row.
				sumH, sumHX := 0.0, 0.0
				h := make([]float64, n)
				for i := 0; i < n; i++ {
					h[i] = gy[i] * gamma.Value.Data[i]
					sumH += h[i]
					sumHX += h[i] * xh[i]
				}
				dst := gx.Data[r*n : (r+1)*n]
				for i := 0; i < n; i++ {
					dst[i] = invStd[r] * (h[i] - sumH/fn - xh[i]*sumHX/fn)
				}
			}
			x.accumulate(gx)
		}
	}, x, gamma, beta)
}
