package nn

import (
	"fmt"

	"drainnet/internal/tensor"
)

// SPP is a spatial pyramid pooling layer (He et al., TPAMI 2015). It
// applies one adaptive max pool per pyramid level and concatenates the
// flattened results, producing a fixed-length vector for any input size:
//
//	out features = C * Σ level²
//
// The paper's SPP_{a,b,c} notation lists the pyramid levels from coarsest
// filter size down; e.g. SPP_{4,2,1} pools to 4×4, 2×2 and 1×1 grids.
// The per-level pools are independent branches — this is exactly the
// branched substructure IOS exploits for inter-operator parallelism.
type SPP struct {
	Levels []int
	pools  []*AdaptiveMaxPool2D

	inShape []int
	task    pyramidTask // inference: every level straight into the output
}

// NewSPP creates a spatial pyramid pooling layer with the given levels.
func NewSPP(levels ...int) *SPP {
	if len(levels) == 0 {
		panic("nn: SPP requires at least one pyramid level")
	}
	s := &SPP{Levels: append([]int(nil), levels...)}
	for _, l := range levels {
		if l <= 0 {
			panic(fmt.Sprintf("nn: SPP level %d must be positive", l))
		}
		s.pools = append(s.pools, NewAdaptiveMaxPool2D(l))
	}
	s.task.setLevels(s.Levels, s.Levels)
	return s
}

// OutFeatures returns the per-sample output length for c input channels.
func (s *SPP) OutFeatures(c int) int {
	total := 0
	for _, l := range s.Levels {
		total += l * l
	}
	return c * total
}

// Params implements Module.
func (s *SPP) Params() []*Param { return nil }

// OutShape implements Module.
func (s *SPP) OutShape(in []int) []int {
	return []int{in[0], s.OutFeatures(in[1])}
}

// Forward implements Module. Input is N×C×H×W; output is N×OutFeatures(C).
func (s *SPP) Forward(x *tensor.Tensor) *tensor.Tensor {
	checkRank(x, 4, "SPP")
	n, c := x.Dim(0), x.Dim(1)
	s.inShape = append([]int(nil), x.Shape()...)
	out := tensor.New(n, s.OutFeatures(c))
	col := 0
	for li, pool := range s.pools {
		po := pool.Forward(x) // N×C×l×l
		l := s.Levels[li]
		feat := c * l * l
		for i := 0; i < n; i++ {
			copy(out.Data()[i*out.Dim(1)+col:i*out.Dim(1)+col+feat],
				po.Data()[i*feat:(i+1)*feat])
		}
		col += feat
	}
	return out
}

// Backward implements Module.
func (s *SPP) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	n, c := s.inShape[0], s.inShape[1]
	gradIn := tensor.New(s.inShape...)
	col := 0
	width := gradOut.Dim(1)
	for li, pool := range s.pools {
		l := s.Levels[li]
		feat := c * l * l
		slice := tensor.New(n, c, l, l)
		for i := 0; i < n; i++ {
			copy(slice.Data()[i*feat:(i+1)*feat],
				gradOut.Data()[i*width+col:i*width+col+feat])
		}
		gradIn.AddScaled(pool.Backward(slice), 1)
		col += feat
	}
	return gradIn
}

// cloneShared implements sharedCloner.
func (s *SPP) cloneShared() Module { return NewSPP(s.Levels...) }

// Infer implements Inferencer: one pool region fills every pyramid level
// straight into its place in the concatenated arena output — no
// per-level regions, scratch or copies.
func (s *SPP) Infer(x *tensor.Tensor, a *tensor.Arena) *tensor.Tensor {
	checkRank(x, 4, "SPP.Infer")
	out := a.Get(x.Dim(0), s.OutFeatures(x.Dim(1)))
	s.task.runLevels(x, out.Data())
	return out
}
