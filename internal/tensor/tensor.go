// Package tensor implements a dense float32 tensor engine used by every
// compute path in drainnet: CNN training and inference, the synthetic
// orthophoto renderer, and the GPU-simulator cost model.
//
// The engine is deliberately small but production-shaped: contiguous
// row-major storage, explicit shape/stride bookkeeping, a parallel blocked
// matrix multiply, im2col/col2im for convolution lowering, and a set of
// elementwise and reduction kernels. All operations are deterministic for a
// fixed seed, which keeps the experiment tables reproducible.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Tensor is a dense, row-major float32 tensor. The zero value is an empty
// tensor; use New or the Of* constructors to create usable tensors.
type Tensor struct {
	shape   []int
	strides []int
	data    []float32
}

// New returns a zero-filled tensor with the given shape. New panics if any
// dimension is negative; a zero-dimensional call returns a scalar tensor
// with one element.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	t := &Tensor{
		shape: append([]int(nil), shape...),
		data:  make([]float32, n),
	}
	t.strides = computeStrides(t.shape)
	return t
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); its length must equal the shape volume.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := Volume(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (volume %d)", len(data), shape, n))
	}
	t := &Tensor{
		shape:   append([]int(nil), shape...),
		data:    data,
		strides: computeStrides(shape),
	}
	return t
}

// Volume returns the number of elements implied by shape.
func Volume(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

func computeStrides(shape []int) []int {
	strides := make([]int, len(shape))
	acc := 1
	for i := len(shape) - 1; i >= 0; i-- {
		strides[i] = acc
		acc *= shape[i]
	}
	return strides
}

// Shape returns the tensor's shape. The returned slice must not be mutated.
func (t *Tensor) Shape() []int { return t.shape }

// Strides returns the tensor's row-major strides.
func (t *Tensor) Strides() []int { return t.strides }

// Data returns the backing slice. Mutating it mutates the tensor.
func (t *Tensor) Data() []float32 { return t.data }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float32 {
	return t.data[t.offset(idx)]
}

// Set assigns v to the element at the given multi-dimensional index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", idx, t.shape))
		}
		off += x * t.strides[i]
	}
	return off
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// Reshape returns a tensor sharing t's data with a new shape of equal
// volume. One dimension may be -1 to be inferred.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	shape = append([]int(nil), shape...)
	infer := -1
	known := 1
	for i, d := range shape {
		if d == -1 {
			if infer >= 0 {
				panic("tensor: at most one dimension may be -1 in Reshape")
			}
			infer = i
		} else {
			known *= d
		}
	}
	if infer >= 0 {
		if known == 0 || len(t.data)%known != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension for reshape of %v to %v", t.shape, shape))
		}
		shape[infer] = len(t.data) / known
	}
	if Volume(shape) != len(t.data) {
		panic(fmt.Sprintf("tensor: reshape %v -> %v changes volume", t.shape, shape))
	}
	return &Tensor{shape: shape, strides: computeStrides(shape), data: t.data}
}

// Zero sets every element to 0 in place.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// Fill sets every element to v in place.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// CopyFrom copies src's data into t. Shapes must have equal volume.
func (t *Tensor) CopyFrom(src *Tensor) {
	if len(src.data) != len(t.data) {
		panic(fmt.Sprintf("tensor: CopyFrom volume mismatch %v vs %v", src.shape, t.shape))
	}
	copy(t.data, src.data)
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// String renders a compact description, with full contents for tensors of
// at most 64 elements.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v", t.shape)
	if len(t.data) <= 64 {
		fmt.Fprintf(&b, "%v", t.data)
	}
	return b.String()
}

// RandNormal fills t with Gaussian noise of the given mean and standard
// deviation drawn from rng.
func (t *Tensor) RandNormal(rng *rand.Rand, mean, std float64) {
	for i := range t.data {
		t.data[i] = float32(rng.NormFloat64()*std + mean)
	}
}

// PseudoSeed starts the FillPseudo stream every measurement probe uses.
const PseudoSeed uint32 = 2463534242

// FillPseudo writes a deterministic xorshift32 sequence in (-1, 1) into
// d — synthetic benchmark input with a realistic sign mix and no RNG
// state — and returns the advanced seed, so successive fills continue
// one stream.
func FillPseudo(d []float32, seed uint32) uint32 {
	for i := range d {
		seed ^= seed << 13
		seed ^= seed >> 17
		seed ^= seed << 5
		d[i] = float32(int32(seed))/float32(1<<31)*0.999 + 0.0005
	}
	return seed
}

// RandUniform fills t with uniform noise in [lo, hi).
func (t *Tensor) RandUniform(rng *rand.Rand, lo, hi float64) {
	for i := range t.data {
		t.data[i] = float32(rng.Float64()*(hi-lo) + lo)
	}
}

// KaimingInit fills t with He-initialization noise appropriate for a layer
// with fanIn inputs followed by a ReLU.
func (t *Tensor) KaimingInit(rng *rand.Rand, fanIn int) {
	if fanIn <= 0 {
		fanIn = 1
	}
	std := math.Sqrt(2.0 / float64(fanIn))
	t.RandNormal(rng, 0, std)
}

// XavierInit fills t with Glorot-initialization noise for a linear layer.
func (t *Tensor) XavierInit(rng *rand.Rand, fanIn, fanOut int) {
	if fanIn+fanOut <= 0 {
		fanIn, fanOut = 1, 1
	}
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	t.RandUniform(rng, -limit, limit)
}

// Sum returns the sum of all elements (accumulated in float64).
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v)
	}
	return s
}

// Mean returns the arithmetic mean of all elements.
func (t *Tensor) Mean() float64 {
	if len(t.data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.data))
}

// Max returns the maximum element and its flat index. It panics on an
// empty tensor.
func (t *Tensor) Max() (float32, int) {
	if len(t.data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	best, at := t.data[0], 0
	for i, v := range t.data {
		if v > best {
			best, at = v, i
		}
	}
	return best, at
}

// Min returns the minimum element and its flat index. It panics on an
// empty tensor.
func (t *Tensor) Min() (float32, int) {
	if len(t.data) == 0 {
		panic("tensor: Min of empty tensor")
	}
	best, at := t.data[0], 0
	for i, v := range t.data {
		if v < best {
			best, at = v, i
		}
	}
	return best, at
}

// L2Norm returns the Euclidean norm of the flattened tensor.
func (t *Tensor) L2Norm() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// AddScaled computes t += alpha*o elementwise. Shapes must match in volume.
func (t *Tensor) AddScaled(o *Tensor, alpha float32) {
	if len(o.data) != len(t.data) {
		panic(fmt.Sprintf("tensor: AddScaled volume mismatch %v vs %v", o.shape, t.shape))
	}
	for i, v := range o.data {
		t.data[i] += alpha * v
	}
}

// Scale multiplies every element by alpha in place.
func (t *Tensor) Scale(alpha float32) {
	for i := range t.data {
		t.data[i] *= alpha
	}
}

// Apply replaces every element x with f(x).
func (t *Tensor) Apply(f func(float32) float32) {
	for i, v := range t.data {
		t.data[i] = f(v)
	}
}

// Equal reports whether t and o have the same shape and identical elements.
func (t *Tensor) Equal(o *Tensor) bool {
	if !t.SameShape(o) {
		return false
	}
	for i := range t.data {
		if t.data[i] != o.data[i] {
			return false
		}
	}
	return true
}

// AllClose reports whether t and o have the same shape and all elements
// within atol + rtol*|o| of each other.
func (t *Tensor) AllClose(o *Tensor, rtol, atol float64) bool {
	if !t.SameShape(o) {
		return false
	}
	for i := range t.data {
		a, b := float64(t.data[i]), float64(o.data[i])
		if math.Abs(a-b) > atol+rtol*math.Abs(b) {
			return false
		}
	}
	return true
}
