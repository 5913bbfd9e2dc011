package nn

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"drainnet/internal/tensor"
)

// sameBits is bit equality, except that any NaN equals any NaN (which
// payload an operation on two NaNs keeps is the instruction selector's
// choice; nothing downstream can tell).
func sameBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// salt overwrites a share of s with NaN, ±Inf, ±0 and denormals.
func salt(rng *rand.Rand, s []float32, share float64) {
	hostile := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.Copysign(0, -1)), 0,
		math.Float32frombits(1), math.Float32frombits(0x807fffff), 1e-39, -3e-42,
	}
	for i := range s {
		if rng.Float64() < share {
			s[i] = hostile[rng.Intn(len(hostile))]
		}
	}
}

// loweredConv is the route the flat conv block replaced, kept as its
// oracle: per sample, Im2ColSlice then the packed GEMM with the bias and
// ReLU in its epilogue.
func loweredConv(c *Conv2D, x *tensor.Tensor, relu bool) *tensor.Tensor {
	n, ch, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh, ow := c.Geom.OutSize(h, w)
	kdim := ch * c.Geom.KH * c.Geom.KW
	c.ensureKernel(KernelIm2Col)
	packed := c.packed
	out := tensor.New(n, c.OutC, oh, ow)
	cols := make([]float32, kdim*oh*ow)
	for i := 0; i < n; i++ {
		tensor.Im2ColSlice(cols, x.Data()[i*ch*h*w:(i+1)*ch*h*w], ch, h, w, c.Geom)
		packed.MulPanelsInto(out.Data()[i*c.OutC*oh*ow:(i+1)*c.OutC*oh*ow], cols, oh*ow, c.Bias.Value.Data(), relu, 0, packed.Panels())
	}
	return out
}

// genericPool is MaxPool2D's window loop over a whole tensor.
func genericPool(p *MaxPool2D, x *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh, ow := p.Geom.OutSize(h, w)
	out := tensor.New(n, c, oh, ow)
	t := maxPoolTask{x: x.Data(), out: out.Data(), h: h, w: w, oh: oh, ow: ow, geom: p.Geom}
	t.poolGeneric(0, n*c)
	return out
}

func requireSameBits(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	if fmt.Sprint(got.Shape()) != fmt.Sprint(want.Shape()) {
		t.Fatalf("%s: shape %v, want %v", what, got.Shape(), want.Shape())
	}
	for i, wv := range want.Data() {
		if gv := got.Data()[i]; !sameBits(gv, wv) {
			t.Fatalf("%s: element %d = %x (%v), want %x (%v)", what, i, math.Float32bits(gv), gv, math.Float32bits(wv), wv)
		}
	}
}

// inBothPoolSizes re-runs the calling test in two child processes, at
// GOMAXPROCS 1 (every region inline) and 4 (three pool workers): the
// worker pool sizes itself once per process. It reports whether this
// process is the parent, which has nothing left to do.
func inBothPoolSizes(t *testing.T) (parent bool) {
	t.Helper()
	if os.Getenv("DRAINNET_POOL_CHILD") != "" {
		return false
	}
	for _, procs := range []string{"1", "4"} {
		cmd := exec.Command(os.Args[0], "-test.run=^"+t.Name()+"$", "-test.count=1")
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+procs, "DRAINNET_POOL_CHILD=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Errorf("GOMAXPROCS=%s: %v\n%s", procs, err, out)
		}
	}
	return true
}

// The conv block must give, bit for bit, what the lowered route gave —
// and with a pool behind it, what the lowered route followed by the
// generic window loop gives — on random stride-1 geometries: kernels 1,
// 3, 5, "valid", "same" and over-padded, 1–9 input and 1–13 output
// channels (partial panels), extents 1–45, at batch 1 (inline and, on a
// few larger clips, split across the pool by panel), 2 and 16, on inputs
// holding NaN, ±Inf, ±0 and denormals. One replica serves every case, so
// its offset table and scratch are rebuilt and reused across shapes the
// way a server's are.
func TestConvBlockMatchesLoweredRoute(t *testing.T) {
	if inBothPoolSizes(t) {
		return
	}
	rng := rand.New(rand.NewSource(2410))
	a := tensor.NewArena()
	cases, split, pooled := 0, 0, 0
	for _, kern := range []int{1, 3, 5} {
		for pad := 0; pad <= 2; pad++ {
			for trial := 0; trial < 14; trial++ {
				inC, outC := 1+rng.Intn(9), 1+rng.Intn(13)
				if trial == 0 {
					inC, outC = 9, 13 // at batch 1 below: above convSplitMACs unless 1×1
				}
				conv := NewConv2DPad(rng, inC, outC, kern, 1, pad)
				conv.Bias.Value.RandNormal(rng, 0, 1)
				if trial%4 == 1 {
					salt(rng, conv.Weight.Value.Data(), 0.02)
					salt(rng, conv.Bias.Value.Data(), 0.2)
				}
				pool := NewMaxPool2D(2, 2)
				block := NewSequential(conv, NewReLU(), pool)
				bare := NewSequential(conv, pool)
				for _, n := range []int{1, 2, 16} {
					h, w := 1+rng.Intn(45), 1+rng.Intn(45)
					if n == 16 {
						h, w = 1+h/2, 1+w/2 // keeps the sweep in seconds under -race
					}
					if trial == 0 && n == 1 {
						h, w = 66+rng.Intn(5), 66+rng.Intn(5)
					}
					if conv.Geom.Validate(h, w) != nil {
						continue
					}
					cases++
					x := randInput(rng, n, inC, h, w)
					if trial%2 == 1 {
						salt(rng, x.Data(), 0.05)
					}
					oh, ow := conv.Geom.OutSize(h, w)
					if n == 1 && outC*inC*kern*kern*oh*ow >= convSplitMACs {
						split++
					}
					name := fmt.Sprintf("%d->%d k%d pad%d %dx%d batch %d", inC, outC, kern, pad, h, w, n)
					for _, relu := range []bool{false, true} {
						a.Reset()
						requireSameBits(t, fmt.Sprintf("%s relu=%v", name, relu), conv.inferFused(x, a, relu), loweredConv(conv, x, relu))
					}
					if pool.Geom.Validate(oh, ow) != nil {
						continue
					}
					pooled++
					a.Reset()
					requireSameBits(t, name+" conv-relu-pool", block.Infer(x, a), genericPool(pool, loweredConv(conv, x, true)))
					a.Reset()
					requireSameBits(t, name+" conv-pool", bare.Infer(x, a), genericPool(pool, loweredConv(conv, x, false)))
				}
			}
		}
	}
	if cases < 250 || pooled < 200 || split < 5 {
		t.Fatalf("%d cases, %d pooled, %d split by panel at batch 1: the sweep lost its coverage", cases, pooled, split)
	}
}

// Concurrent replicas of one conv block share the packed weights and
// nothing else; under -race this is the check that the per-replica
// scratch and offset table really are per replica.
func TestConvBlockReplicasRunConcurrently(t *testing.T) {
	rng := rand.New(rand.NewSource(2411))
	net := NewSequential(NewConv2D(rng, 4, 8, 3, 1), NewReLU(), NewMaxPool2D(2, 2))
	PrepareInference(net)
	x := randInput(rng, 3, 4, 17, 14)
	want := net.Infer(x, tensor.NewArena()).Clone()
	done := make(chan error, 4)
	for r := 0; r < 4; r++ {
		cm, err := CloneShared(net)
		if err != nil {
			t.Fatal(err)
		}
		go func(rep *Sequential, r int) {
			a := tensor.NewArena()
			for it := 0; it < 20; it++ {
				a.Reset()
				got := rep.Infer(x, a)
				for i, wv := range want.Data() {
					if got.Data()[i] != wv {
						done <- fmt.Errorf("replica %d pass %d: element %d = %v, want %v", r, it, i, got.Data()[i], wv)
						return
					}
				}
			}
			done <- nil
		}(cm.(*Sequential), r)
	}
	for r := 0; r < 4; r++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

// splitNet has every fusion the chain performs and every way out of it:
// conv→ReLU→pool and conv→pool blocks, a conv whose ReLU is behind a
// batch-norm, a stride-2 conv (the lowered route, which takes a ReLU but
// never a pool), a stride-1 pool, a conv→ReLU with nothing to pool, and
// the SPP + linear head.
func splitNet(rng *rand.Rand) *Sequential {
	bn := NewBatchNorm2D(5)
	bn.Training = false
	spp := NewSPP(2, 1)
	return NewSequential(
		NewConv2D(rng, 3, 6, 3, 1), NewReLU(), NewMaxPool2D(2, 2),
		NewConv2D(rng, 6, 5, 5, 1), bn, NewReLU(), NewMaxPool2D(2, 2),
		NewConv2DPad(rng, 5, 7, 3, 1, 0), NewMaxPool2D(2, 2),
		NewConv2D(rng, 7, 8, 3, 2), NewReLU(), NewMaxPool2D(2, 2),
		NewConv2D(rng, 8, 8, 3, 1), NewReLU(), NewMaxPool2D(2, 1),
		NewConv2D(rng, 8, 9, 1, 1), NewReLU(),
		spp, NewLinear(rng, spp.OutFeatures(9), 11), NewReLU(), NewLinear(rng, 11, 5),
	)
}

// Fusion lookahead never crosses a range bound, and every fused form
// computes the bits of the unfused one: the chain split at any module
// boundary — between a conv and its ReLU, between the ReLU and the pool
// — equals one full Infer, which equals the training-graph Forward.
func TestInferRangeSplitAtEveryBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(2412))
	net := splitNet(rng)
	PrepareInference(net)
	nm := len(net.Modules())
	a := tensor.NewArena()
	for _, n := range []int{1, 2, 5} {
		x := randInput(rng, n, 3, 96, 90)
		want := net.Forward(x)
		requireSameBits(t, fmt.Sprintf("batch %d: Infer vs Forward", n), net.Infer(x, a), want)
		for k := 0; k <= nm; k++ {
			a.Reset()
			got := net.InferRange(net.InferRange(x, a, 0, k), a, k, nm)
			requireSameBits(t, fmt.Sprintf("batch %d split at module %d", n, k), got, want)
		}
		// One module at a time: nothing fuses at all.
		a.Reset()
		cur := x
		for k := 0; k < nm; k++ {
			cur = net.InferRange(cur, a, k, k+1)
		}
		requireSameBits(t, fmt.Sprintf("batch %d module by module", n), cur, want)
	}
}

// A bound stage hook sees every block InferRange runs once, in order, as
// a stage at its first module, labelled with the modules the block
// fused; a range bound splits a block's label too, and timing changes no
// bit.
func TestSequentialStageHookReportsBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(2414))
	net := splitNet(rng)
	PrepareInference(net)
	x := randInput(rng, 2, 3, 96, 90)
	want := net.Infer(x, tensor.NewArena())
	var got []string
	net.SetStageHook(func(stage int, label string, start time.Time, d time.Duration) {
		if start.IsZero() || d < 0 {
			t.Errorf("block %q: stage %d, start %v, dur %v", label, stage, start, d)
		}
		got = append(got, fmt.Sprintf("%d %s", stage, label))
	})
	requireSameBits(t, "hooked", net.Infer(x, tensor.NewArena()), want)
	blocks := []string{
		"0 Conv2D→ReLU→MaxPool2D",
		"3 Conv2D", "4 BatchNorm2D", "5 ReLU", "6 MaxPool2D",
		"7 Conv2D→MaxPool2D",
		"9 Conv2D→ReLU", "11 MaxPool2D", // stride 2: the lowered route takes no pool
		"12 Conv2D→ReLU", "14 MaxPool2D", // a stride-1 pool is no epilogue
		"15 Conv2D→ReLU", "17 SPP", "18 Linear→ReLU", "20 Linear",
	}
	if strings.Join(got, ", ") != strings.Join(blocks, ", ") {
		t.Fatalf("hook saw %q, want %q", got, blocks)
	}

	got = got[:0]
	a := tensor.NewArena()
	net.InferRange(net.InferRange(x, a, 0, 2), a, 2, 4)
	if split := []string{"0 Conv2D→ReLU", "2 MaxPool2D", "3 Conv2D"}; strings.Join(got, ", ") != strings.Join(split, ", ") {
		t.Fatalf("split run: hook saw %q, want %q", got, split)
	}
}

// ConvGeom.OutSize rounds toward zero, so a 2×2 pool over a plane one
// row or column short of a window still has an output, from a clipped
// window. Neither the block's epilogue nor the pool's own vector route
// may take that shape; both must give what Forward gives.
func TestConvBlockClippedPoolWindowMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(2413))
	net := NewSequential(NewConv2DPad(rng, 2, 5, 3, 1, 0), NewReLU(), NewMaxPool2D(2, 2))
	a := tensor.NewArena()
	for _, hw := range [][2]int{{3, 9}, {9, 3}, {3, 3}, {4, 3}} { // conv outputs 1×7, 7×1, 1×1, 2×1
		for _, n := range []int{1, 3} {
			x := randInput(rng, n, 2, hw[0], hw[1])
			want := net.Forward(x)
			a.Reset()
			requireSameBits(t, fmt.Sprintf("%dx%d batch %d fused", hw[0], hw[1], n), net.Infer(x, a), want)
			a.Reset()
			requireSameBits(t, fmt.Sprintf("%dx%d batch %d conv then pool", hw[0], hw[1], n), net.InferRange(net.InferRange(x, a, 0, 2), a, 2, 3), want)
		}
	}
}

// A stride-2 conv keeps the lowered route and must still equal Forward.
func TestStride2ConvInferMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(2414))
	for _, kern := range []int{2, 3, 5} {
		conv := NewConv2D(rng, 3, 7, kern, 2)
		conv.Bias.Value.RandNormal(rng, 0, 1)
		if conv.flatRoute(1) {
			t.Fatal("a stride-2 conv took the flat route")
		}
		a := tensor.NewArena()
		for _, n := range []int{1, 2, 5} {
			x := randInput(rng, n, 3, 21, 18)
			want := conv.Forward(x)
			requireSameBits(t, fmt.Sprintf("k%d batch %d", kern, n), conv.Infer(x, a), want)
			for i, v := range want.Data() {
				if !(v > 0) {
					want.Data()[i] = 0
				}
			}
			requireSameBits(t, fmt.Sprintf("k%d batch %d relu", kern, n), conv.inferFused(x, a, true), want)
		}
	}
}

// The adaptive pool tabulates its bin bounds per input shape; a replica
// that sees one shape, then another, then the first again must keep
// equalling Forward, and NaN must still never win a bin.
func TestAdaptivePoolBinTableFollowsShape(t *testing.T) {
	rng := rand.New(rand.NewSource(2415))
	for _, outSize := range []int{1, 2, 4, 5} {
		p := NewAdaptiveMaxPool2D(outSize)
		a := tensor.NewArena()
		for _, hw := range [][2]int{{5, 5}, {12, 9}, {5, 5}, {3, 7}, {1, 1}, {12, 9}, {9, 12}} {
			x := randInput(rng, 2, 3, hw[0], hw[1])
			salt(rng, x.Data(), 0.2)
			a.Reset()
			requireSameBits(t, fmt.Sprintf("%d bins over %dx%d", outSize, hw[0], hw[1]), p.Infer(x, a), p.Forward(x))
		}
	}
}
