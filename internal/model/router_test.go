package model

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"drainnet/internal/tensor"
)

// oracleRouterLogit is Router.Logit before its channels were
// interleaved, kept as the oracle: each channel's sum, then its
// absolute deviation, one channel after another.
func oracleRouterLogit(r *Router, x *tensor.Tensor, i int) float32 {
	c, h, w := x.Dim(1), x.Dim(2), x.Dim(3)
	plane := h * w
	data := x.Data()[i*c*plane : (i+1)*c*plane]
	s := float64(r.B)
	inv := 1 / float64(plane)
	for ci := 0; ci < c; ci++ {
		p := data[ci*plane : (ci+1)*plane]
		var sum float64
		for _, v := range p {
			sum += float64(v)
		}
		mu := sum * inv
		var mad float64
		for _, v := range p {
			mad += math.Abs(float64(v) - mu)
		}
		s += float64(r.WMean[ci])*mu + float64(r.WMAD[ci])*mad*inv
	}
	return float32(s)
}

// The interleaved Logit must give the oracle's bits for every channel
// count 1..8 (one group of four, a remainder, both) and plane sides
// 1..100, on clips with wide dynamic range, ±0, ±Inf and NaN.
func TestRouterLogitMatchesPerChannelOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3704))
	hostile := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.Copysign(0, -1)), 0, 1e-42}
	for c := 1; c <= 8; c++ {
		r := &Router{WMean: make([]float32, c), WMAD: make([]float32, c), B: rng.Float32() - 0.5}
		for k := 0; k < c; k++ {
			r.WMean[k], r.WMAD[k] = float32(rng.NormFloat64()), float32(rng.NormFloat64())
		}
		for side := 1; side <= 100; side += 1 + side/8 {
			h, w := side, 1+rng.Intn(100)
			x := tensor.New(2, c, h, w)
			for j := range x.Data() {
				x.Data()[j] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4)))
			}
			if side%5 == 0 {
				for j := range x.Data() {
					if rng.Intn(50) == 0 {
						x.Data()[j] = hostile[rng.Intn(len(hostile))]
					}
				}
			}
			for i := 0; i < 2; i++ {
				got, want := r.Logit(x, i), oracleRouterLogit(r, x, i)
				if math.Float32bits(got) != math.Float32bits(want) && !(got != got && want != want) {
					t.Fatalf("%s sample %d: logit %x, the per-channel oracle gives %x",
						fmt.Sprintf("c=%d %dx%d", c, h, w), i, math.Float32bits(got), math.Float32bits(want))
				}
			}
		}
	}
}

// BenchmarkRouterLogit times one 4-band 40×40 clip, the served shape.
func BenchmarkRouterLogit(b *testing.B) {
	rng := rand.New(rand.NewSource(3705))
	x := tensor.New(1, 4, 40, 40)
	for j := range x.Data() {
		x.Data()[j] = rng.Float32()
	}
	r := &Router{WMean: []float32{1, 2, 3, 4}, WMAD: []float32{4, 3, 2, 1}}
	b.Run("interleaved", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.Logit(x, 0)
		}
	})
	b.Run("per-channel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			oracleRouterLogit(r, x, 0)
		}
	})
}
