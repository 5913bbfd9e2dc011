package tensor

import (
	"math/rand"
	"testing"
)

func randMat(rng *rand.Rand, r, c int) *Tensor {
	t := New(r, c)
	for i := range t.data {
		t.data[i] = float32(rng.NormFloat64())
	}
	return t
}

// The packed kernel must be bit-identical to the reference MatMulInto —
// the serving path's determinism test compares detections bitwise
// against the training-graph forward.
func TestPackedMulMatchesMatMulIntoBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, m := range []int{1, 2, 3, 4, 5, 8, 13} {
		for _, k := range []int{1, 7, 64} {
			for _, n := range []int{1, 9, 33} {
				a := randMat(rng, m, k)
				b := randMat(rng, k, n)
				want := New(m, n)
				MatMulInto(want, a, b)
				got := New(m, n)
				PackMatrix(a).MulInto(got, b, nil, false)
				for i := range want.data {
					if want.data[i] != got.data[i] {
						t.Fatalf("m=%d k=%d n=%d: element %d packed %v != reference %v",
							m, k, n, i, got.data[i], want.data[i])
					}
				}
			}
		}
	}
}

func TestPackedMulFusedBiasReLUMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const m, k, n = 6, 40, 17
	a := randMat(rng, m, k)
	b := randMat(rng, k, n)
	bias := make([]float32, m)
	for i := range bias {
		bias[i] = float32(rng.NormFloat64())
	}
	// Reference: matmul, then bias, then ReLU as separate passes.
	want := New(m, n)
	MatMulInto(want, a, b)
	for r := 0; r < m; r++ {
		row := want.data[r*n : (r+1)*n]
		for j := range row {
			v := row[j] + bias[r]
			if v > 0 {
				row[j] = v
			} else {
				row[j] = 0
			}
		}
	}
	got := New(m, n)
	PackMatrix(a).MulInto(got, b, bias, true)
	for i := range want.data {
		if want.data[i] != got.data[i] {
			t.Fatalf("fused element %d = %v, want %v", i, got.data[i], want.data[i])
		}
	}
}

// The FC entry must give MatMulTransB's bits, then the bias add and
// the clamp, on every path: for every batch 1..40 and every layer of
// 1..41 outputs.
func TestDotPanelIntoMatchesMatMulTransB(t *testing.T) {
	kernelModes(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(13))
		for m := 1; m <= 41; m++ {
			for n := 1; n <= 40; n++ {
				const k = 29
				w := randMat(rng, m, k) // weight rows
				x := randMat(rng, n, k) // n samples
				bias := make([]float32, m)
				for i := range bias {
					bias[i] = float32(rng.NormFloat64())
				}
				ref := MatMulTransB(x, w) // n×m
				for j := range ref.data {
					v := ref.data[j] + bias[j%m]
					if !(v > 0) {
						v = 0
					}
					ref.data[j] = v
				}
				p := PackFC(w)
				got := make([]float32, n*m)
				p.MulTransInto(got, x.data, n, bias, true, 0, p.Groups())
				for j := range ref.data {
					if got[j] != ref.data[j] {
						t.Fatalf("m=%d n=%d: sample %d output %d = %v, want %v", m, n, j/m, j%m, got[j], ref.data[j])
					}
				}
			}
		}
	})
}

func TestPackFCRequiresRank2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("rank-3 tensor packed without panic")
		}
	}()
	PackFC(New(2, 2, 2))
}

func TestPackMatrixRequiresRank2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("rank-3 tensor packed without panic")
		}
	}()
	PackMatrix(New(2, 2, 2))
}
