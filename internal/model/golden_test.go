package model

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"strconv"
	"testing"

	"drainnet/internal/metrics"
	"drainnet/internal/nn"
	"drainnet/internal/tensor"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/infer_golden.json from the current kernels")

const (
	goldenPath  = "testdata/infer_golden.json"
	goldenClips = 64
)

// goldenNet builds the benchmark harness's architecture (SPP-Net #2 ÷ 16
// on 4×40×40 clips) with seeded weights and seeded non-zero biases, so
// the fused bias/ReLU epilogue of every layer takes part in the digest.
func goldenNet(t *testing.T) *nn.Sequential {
	t.Helper()
	rng := rand.New(rand.NewSource(2101))
	net, err := SPPNet2().Scaled(16).WithInput(4, 40).Build(rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range net.Params() {
		if p.Value.Rank() == 1 {
			p.Value.RandNormal(rng, 0, 0.1)
		}
	}
	return net
}

// goldenBatch is 64 seeded clips of graded texture: every fourth clip is
// pure noise, the others a per-band level plus noise of falling amplitude
// with one textured row block, so the dynamic executor's row masking sees
// active bands, flat bands and clips in between, and the exit probe sees
// both sides of its threshold.
func goldenBatch() *tensor.Tensor {
	rng := rand.New(rand.NewSource(2102))
	x := tensor.New(goldenClips, 4, 40, 40)
	d := x.Data()
	for i := 0; i < goldenClips; i++ {
		amp := []float32{1, 0.1, 0.01, 0}[i%4]
		r0 := rng.Intn(30)
		for c := 0; c < 4; c++ {
			level := float32(rng.NormFloat64())
			plane := d[(i*4+c)*1600 : (i*4+c+1)*1600]
			for j := range plane {
				v := level + amp*float32(rng.NormFloat64())
				if row := j / 40; i%4 != 0 && row >= r0 && row < r0+6 {
					v += float32(rng.NormFloat64())
				}
				plane[j] = v
			}
		}
	}
	return x
}

// goldenDynamicPlan is a hand-built dynamic plan (no calibration split):
// masking at a fixed energy threshold on every conv after the first and a
// seeded exit probe whose threshold splits the golden batch.
func goldenDynamicPlan(t *testing.T, net *nn.Sequential) *DynamicPlan {
	t.Helper()
	idx, err := SPPIndex(net)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2103))
	w := make([]float32, 16)
	for i := range w {
		w[i] = float32(rng.NormFloat64())
	}
	return &DynamicPlan{
		Exit: &ExitHead{W: w, B: 0.05, Threshold: -6}, ExitEnabled: true,
		MaskEnabled: true, MaskBand: 4, MaskThreshold: 0.3,
		SPPIndex: idx,
		Stats:    &nn.MaskStats{}, ExitStats: &ExitStats{},
	}
}

type goldenExec struct {
	name string
	exec Executor
	plan *DynamicPlan
}

// goldenInt8Net quantizes a goldenNet against observers calibrated on
// the golden batch itself, sixteen clips at a time.
func goldenInt8Net(t *testing.T) *nn.Sequential {
	t.Helper()
	net := goldenNet(t)
	x := goldenBatch()
	const per = 4 * 40 * 40
	var batches []*tensor.Tensor
	for i := 0; i < goldenClips; i += 16 {
		batches = append(batches, tensor.FromSlice(x.Data()[i*per:(i+16)*per], 16, 4, 40, 40))
	}
	qnet, rep, err := nn.QuantizeForInference(net, nn.Calibrate(net, batches))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quantized != 5 || rep.Fallback != 0 {
		t.Fatalf("golden int8 net: %d layers quantized, %d fell back; want all 5 on the int8 kernels", rep.Quantized, rep.Fallback)
	}
	return qnet
}

// goldenExecutors returns the executors the harness can serve: the
// static im2col chain, the same chain with every conv on the Winograd
// kernel in both batch buckets, the dynamic executor, and the two int8
// ones — the quantized chain on its own and as the routed twin of the
// dynamic executor (unmasked, like Plan.NewReplica's: the plan's masks
// go on the fp32 net only, so the twin's plan counts exits alone).
func goldenExecutors(t *testing.T) []goldenExec {
	t.Helper()
	static := goldenNet(t)
	wino := goldenNet(t)
	for _, m := range wino.Modules() {
		if c, ok := m.(*nn.Conv2D); ok {
			c.SetKernels(nn.KernelWinograd, nn.KernelWinograd)
		}
	}
	dyn := goldenNet(t)
	plan := goldenDynamicPlan(t, dyn)
	plan.Apply(dyn)
	quant := goldenInt8Net(t)
	twin := goldenInt8Net(t)
	twinPlan := goldenDynamicPlan(t, twin)
	twinPlan.MaskEnabled = false
	for _, net := range []*nn.Sequential{static, wino, dyn, quant, twin} {
		nn.PrepareInference(net)
	}
	return []goldenExec{
		{"static", seqExec{static}, nil},
		{"winograd", seqExec{wino}, nil},
		{"dynamic", NewDynamicExec(dyn, plan), plan},
		{"int8", seqExec{quant}, nil},
		{"int8-dynamic", NewDynamicExec(twin, twinPlan), twinPlan},
	}
}

// goldenDigests runs the golden batch through every executor at batch 1
// and batch 16 and hashes the bits of every detection.
func goldenDigests(t *testing.T) map[string]string {
	t.Helper()
	x := goldenBatch()
	out := map[string]string{}
	a := tensor.NewArena()
	var dets []metrics.Detection
	for _, ge := range goldenExecutors(t) {
		for _, batch := range []int{1, 16} {
			h := sha256.New()
			per := 4 * 40 * 40
			for i := 0; i < goldenClips; i += batch {
				a.Reset()
				dets = ge.exec.InferDetect(tensor.FromSlice(x.Data()[i*per:(i+batch)*per], batch, 4, 40, 40), a, dets[:0])
				if len(dets) != batch {
					t.Fatalf("%s b%d: %d detections", ge.name, batch, len(dets))
				}
				for _, d := range dets {
					exited := uint64(0)
					if d.Exited {
						exited = 1
					}
					bits := [6]uint64{math.Float64bits(d.Score), math.Float64bits(d.Box.CX), math.Float64bits(d.Box.CY),
						math.Float64bits(d.Box.W), math.Float64bits(d.Box.H), exited}
					if err := binary.Write(h, binary.LittleEndian, bits); err != nil {
						t.Fatal(err)
					}
				}
			}
			out[ge.name+"/b"+strconv.Itoa(batch)] = hex.EncodeToString(h.Sum(nil))
		}
		if ge.plan != nil {
			// The digest must cover both sides of every dynamic decision.
			if exited, total := ge.plan.ExitStats.Counts(); exited == 0 || exited == total {
				t.Fatalf("golden batch exits %d of %d clips: the probe threshold no longer splits it", exited, total)
			}
			if masked, total := ge.plan.Stats.Counts(); ge.plan.MaskEnabled && (masked == 0 || masked == total) {
				t.Fatalf("golden batch masks %d of %d bands: the mask threshold no longer splits it", masked, total)
			}
		}
	}
	return out
}

// TestInferGoldenDigests pins InferDetect bit for bit on the benchmark
// architecture against digests recorded before the loops under it were
// replaced: the fp32 ones at commit 4d39572 (GEMM, im2col, dot and
// max-pool, now the AVX2 panel kernel and its row-copy / fast-path
// companions), the int8 ones at 72a17d7 (GEMM, dot, quantize and
// dequantize, now the AVX2 integer kernels of int8_amd64.s). The
// worker pool sizes itself once per process, so the comparison runs in
// two child processes, GOMAXPROCS 1 and 4; under `-tags purego` the same
// digests pin the scalar fallback.
func TestInferGoldenDigests(t *testing.T) {
	if os.Getenv("DRAINNET_GOLDEN_CHILD") == "" && !*updateGolden {
		for _, procs := range []string{"1", "4"} {
			cmd := exec.Command(os.Args[0], "-test.run=^TestInferGoldenDigests$", "-test.count=1")
			cmd.Env = append(os.Environ(), "GOMAXPROCS="+procs, "DRAINNET_GOLDEN_CHILD=1")
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Errorf("GOMAXPROCS=%s: %v\n%s", procs, err, out)
			}
		}
		return
	}
	got := goldenDigests(t)
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d digests computed, %d recorded", len(got), len(want))
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: digest %s, recorded %s", name, got[name], w)
		}
	}
}
