package model

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"drainnet/internal/nn"
	"drainnet/internal/tensor"
	"drainnet/internal/terrain"
)

var updateGateGolden = flag.Bool("update-gate-golden", false, "rewrite testdata/gate_golden.json from the current gates")

const gateGoldenPath = "testdata/gate_golden.json"

// gateTestNet is the compile test net built from seed with its box
// outputs recentred: the head's box rows keep a fifth of their random
// weights and a bias of (0.5, 0.5, 0.3, 0.3), so every predicted box is
// a real box (the untrained head clamps most of them to zero width) and
// the gates' AP is not identically zero.
func gateTestNet(t testing.TB, seed int64) *nn.Sequential {
	t.Helper()
	net, err := compileTestConfig().Build(rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	mods := net.Modules()
	head := mods[len(mods)-1].(*nn.Linear)
	w, b := head.Weight.Value.Data(), head.Bias.Value.Data()
	for o, bias := range []float32{0.5, 0.5, 0.3, 0.3} {
		row := w[(o+1)*head.In : (o+2)*head.In]
		for i := range row {
			row[i] *= 0.2
		}
		b[o+1] = bias
	}
	return net
}

// teacherCalibData is a calibration split net scores well on but not
// perfectly: n seeded clips labelled by the net itself — positive, with
// the box it predicts, on its higher-scoring half except every fifth
// clip there and on every fourth clip of the lower half. Every gate
// step then has a non-zero baseline and real drops to gate.
func teacherCalibData(net *nn.Sequential, seed int64, n int) *terrain.Dataset {
	ds := dynCalibData(rand.New(rand.NewSource(seed)), n)
	x, _ := ds.Batch(0, n)
	dets := InferDetect(net, x, tensor.NewArena(), nil)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return dets[order[a]].Score > dets[order[b]].Score })
	for rank, i := range order {
		pos := rank%5 != 4
		if rank >= n/2 {
			pos = rank%4 == 0
		}
		b := dets[i].Box
		ds.Samples[i].Target = nn.DetectionTarget{HasObject: pos,
			CX: float32(b.CX), CY: float32(b.CY), W: float32(b.W), H: float32(b.H)}
	}
	return ds
}

// gateRecord is every gate number one Compile reports.
type gateRecord struct {
	Mode    string         `json:"mode"`
	Epsilon float64        `json:"epsilon"`
	Quant   *quantRecord   `json:"quant,omitempty"`
	Kernels *kernelRecord  `json:"kernels,omitempty"`
	Dynamic *dynamicRecord `json:"dynamic,omitempty"`
}

type quantRecord struct {
	FP32AP, Int8AP, Drop float64
	Enabled              bool
}

type kernelRecord struct {
	Mix                   string
	Demotions             int
	FP32AP, TunedAP, Drop float64
}

type dynamicRecord struct {
	MaskThreshold                           float64
	ExitThreshold                           *float64 // nil when no probe was calibrated
	MaskEnabled, ExitEnabled, RouterEnabled bool
	Demotions                               int
	FP32AP, DynamicAP, Drop                 float64
	ExitRate, MaskRate                      float64
}

// gateGoldenModes are the Compile modes that score a gate.
var gateGoldenModes = []struct {
	name string
	opts CompileOptions
}{
	{"int8", CompileOptions{Precision: PrecisionInt8}},
	{"auto", CompileOptions{Precision: PrecisionAuto}},
	{"autotune", CompileOptions{Autotune: true}},
	{"autotune+auto", CompileOptions{Autotune: true, Precision: PrecisionAuto}},
	{"dynamic", CompileOptions{Dynamic: true}},
	{"dynamic+auto", CompileOptions{Dynamic: true, Precision: PrecisionAuto}},
	{"autotune+dynamic+auto", CompileOptions{Autotune: true, Dynamic: true, Precision: PrecisionAuto}},
}

var gateGoldenEpsilons = []float64{-1, 0.05, 1}

// fixedKernelCosts returns a cost cache holding every measurement the
// autotuner takes on gateTestNet(5), with each timing replaced by a
// fixed price per kernel (Winograd cheapest, then int8, NCHWc, direct,
// im2col; int8 cheapest of all on the second conv), so the tuned mix —
// and every gate number after it — does not depend on the host's timings.
func fixedKernelCosts(t *testing.T, calib CalibSource) *CostCache {
	t.Helper()
	cache := NewCostCache()
	if _, err := Compile(compileTestConfig(), gateTestNet(t, 5), calib,
		CompileOptions{Autotune: true, Precision: PrecisionAuto, MaxAPDrop: 1, MaxBatch: 8, CostCache: cache}); err != nil {
		t.Fatal(err)
	}
	price := map[string]float64{
		"winograd": 1, "int8": 2, "nchwc": 3, "direct": 4, "im2col": 5,
	}
	for key := range cache.Snapshot() {
		i := strings.Index(key, "|kern=")
		if i < 0 {
			t.Fatalf("cost key %q names no kernel", key)
		}
		v, ok := price[key[i+len("|kern="):]]
		if !ok {
			t.Fatalf("unpriced cost key %q", key)
		}
		if strings.HasSuffix(key, "|kern=int8") && strings.Contains(key, "|out=16|") {
			v = 0.5 // the second conv goes int8 whenever a quantized net competes
		}
		cache.Put(key, v*1000)
	}
	return cache
}

func recordGates(t *testing.T, mode string, eps float64, p *Plan, err error) gateRecord {
	t.Helper()
	rec := gateRecord{Mode: mode, Epsilon: eps}
	var gateErr *QuantGateError
	switch {
	case errors.As(err, &gateErr):
		d := gateErr.Decision
		rec.Quant = &quantRecord{d.FP32AP, d.Int8AP, d.Drop, d.Enabled}
		return rec
	case err != nil:
		t.Fatalf("%s ε=%v: %v", mode, eps, err)
	}
	if d := p.Quant; d != nil {
		rec.Quant = &quantRecord{d.FP32AP, d.Int8AP, d.Drop, d.Enabled}
	}
	if k := p.Kernels; k != nil {
		if k.Measured != 0 {
			t.Fatalf("%s ε=%v: the tuner measured %d uncached kernels", mode, eps, k.Measured)
		}
		rec.Kernels = &kernelRecord{k.Mix(), k.Demotions, k.FP32AP, k.TunedAP, k.Drop}
	}
	if d := p.Dynamic; d != nil {
		dr := &dynamicRecord{
			MaskThreshold: float64(d.MaskThreshold),
			MaskEnabled:   d.MaskEnabled, ExitEnabled: d.ExitEnabled, RouterEnabled: d.RouterEnabled,
			Demotions: d.Demotions,
			FP32AP:    d.FP32AP, DynamicAP: d.DynamicAP, Drop: d.Drop,
			ExitRate: d.ExitRate, MaskRate: d.MaskRate,
		}
		if d.Exit != nil {
			tau := float64(d.Exit.Threshold)
			dr.ExitThreshold = &tau
		}
		rec.Dynamic = dr
	}
	return rec
}

// compileGateRecords runs every gated Compile mode at every ε on
// gateTestNet(5) and its calibration split.
func compileGateRecords(t *testing.T) []gateRecord {
	ds := teacherCalibData(gateTestNet(t, 5), 43, 48)
	calib := func() (*terrain.Dataset, error) { return ds, nil }
	costs := fixedKernelCosts(t, calib)
	var recs []gateRecord
	for _, m := range gateGoldenModes {
		for _, eps := range gateGoldenEpsilons {
			opts := m.opts
			opts.MaxAPDrop, opts.MaxBatch, opts.CostCache = eps, 8, costs
			p, err := Compile(compileTestConfig(), gateTestNet(t, 5), calib, opts)
			recs = append(recs, recordGates(t, m.name, eps, p, err))
		}
	}
	return recs
}

// Every gate number each Compile mode reports — the int8 decision, the
// tuned kernel mix and its ladder, the dynamic plan's thresholds, flags,
// ladder, APs and rates — at ε ∈ {−1, 0.05, 1}, against the values the
// per-step gates reported before they shared one baseline (recorded with
// -update-gate-golden). The rows must match bit for bit, with one
// deliberate exception: the dynamic planner used to replace ε ≤ 0 by
// 0.01, so its ε = −1 rows hold 0.01's plan. The gate takes ε as given,
// so there the dynamic step must refuse masking and the exit and serve
// the static path, at the baseline AP.
func TestCompileGateGolden(t *testing.T) {
	got := compileGateRecords(t)
	if *updateGateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(gateGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(gateGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []gateRecord
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d records, golden has %d", len(got), len(want))
	}
	for i := range got {
		if d := want[i].Dynamic; d != nil && want[i].Epsilon < 0 {
			want[i].Dynamic = &dynamicRecord{RouterEnabled: d.RouterEnabled,
				FP32AP: d.FP32AP, DynamicAP: d.FP32AP}
		}
		g, _ := json.Marshal(got[i])
		w, _ := json.Marshal(want[i])
		if string(g) != string(w) {
			t.Errorf("%s ε=%v:\n got  %s\n want %s", got[i].Mode, got[i].Epsilon, g, w)
		}
	}
}

// ε means what the flag says: 0 admits no mechanism that loses AP, in
// the dynamic step as in the others — it is not a stand-in for a
// default tolerance.
func TestCompileTakesEpsilonAsGiven(t *testing.T) {
	ds := teacherCalibData(gateTestNet(t, 5), 43, 48)
	p, err := Compile(compileTestConfig(), gateTestNet(t, 5),
		func() (*terrain.Dataset, error) { return ds, nil },
		CompileOptions{Dynamic: true, MaxAPDrop: 0})
	if err != nil {
		t.Fatal(err)
	}
	if p.Dynamic.Epsilon != 0 || p.Dynamic.Drop > 0 {
		t.Fatalf("dynamic plan gated at ε %v with drop %v, want ε 0 and drop ≤ 0", p.Dynamic.Epsilon, p.Dynamic.Drop)
	}
}

// reportedBaselines is the baseline AP each gated step of p reports.
func reportedBaselines(p *Plan) []float64 {
	var out []float64
	if p.Quant != nil {
		out = append(out, p.Quant.FP32AP)
	}
	if p.Kernels != nil {
		out = append(out, p.Kernels.FP32AP)
	}
	if p.Dynamic != nil {
		out = append(out, p.Dynamic.FP32AP)
	}
	return out
}

// exactPlan reports whether p serves only bit-exact arithmetic: no
// quantized module on either path, only exact kernels, and no dynamic
// mechanism enabled.
func exactPlan(p *Plan) bool {
	if p.Precision != PrecisionFP32 || p.Router != nil {
		return false
	}
	for _, l := range p.KernelReport() {
		for _, k := range []string{l.Batch1, l.BatchN} {
			if k == KernelInt8 || k == nn.KernelWinograd.String() {
				return false
			}
		}
	}
	d := p.Dynamic
	return d == nil || (!d.MaskEnabled && !d.ExitEnabled)
}

// Every served executor against the reference, on random nets and
// splits: each CompileOptions mode at ε ∈ {−1, 0.05, 1}, through two
// replicas from Plan.NewReplica, at every batch size up to MaxBatch. An
// exact plan must match Detect bit for bit, and at ε < 0 every plan must
// be exact. Every step must report the loaded net's AP on the split as
// its baseline, and a gated plan's main executor must score within ε of
// it there.
//
// A routed plan's int8 executor is not held to ε here: the gate admits
// the static int8 net and the fp32 dynamic path separately, and nothing
// scores the int8 dynamic path or the routed mix (on seed 303 at
// ε = 0.05 the routed mix scores 0.001 against a 0.214 baseline).
func TestServedExecutorsDifferential(t *testing.T) {
	const maxBatch = 4
	modes := []struct {
		name string
		opts CompileOptions
	}{
		{"fp32", CompileOptions{}},
		{"autotune", CompileOptions{Autotune: true}},
		{"int8", CompileOptions{Precision: PrecisionInt8}},
		{"auto", CompileOptions{Precision: PrecisionAuto}},
		{"dynamic", CompileOptions{Dynamic: true}},
		{"dynamic+auto", CompileOptions{Dynamic: true, Precision: PrecisionAuto}},
	}
	seeds := []int64{101, 202, 303}
	if testing.Short() {
		seeds = seeds[:1]
	}
	cache := NewCostCache()
	var exactN, gatedN int
	for _, seed := range seeds {
		ds := teacherCalibData(gateTestNet(t, seed), seed+1, 48)
		calib := func() (*terrain.Dataset, error) { return ds, nil }
		ref := gateTestNet(t, seed)
		rng := rand.New(rand.NewSource(seed + 2))
		for _, m := range modes {
			for _, eps := range []float64{-1, 0.05, 1} {
				t.Run(fmt.Sprintf("seed%d/%s/eps%v", seed, m.name, eps), func(t *testing.T) {
					opts := m.opts
					opts.MaxAPDrop, opts.MaxBatch, opts.CostCache = eps, maxBatch, cache
					p, err := Compile(compileTestConfig(), gateTestNet(t, seed), calib, opts)
					var gateErr *QuantGateError
					if errors.As(err, &gateErr) && m.opts.Precision == PrecisionInt8 {
						return // -precision int8 refused: nothing serves
					}
					if err != nil {
						t.Fatal(err)
					}
					exact := exactPlan(p)
					if eps < 0 && !exact {
						t.Fatal("a plan gated at ε < 0 serves inexact arithmetic")
					}
					g := newGate(gateTestNet(t, seed), ds, eps)
					for _, base := range reportedBaselines(p) {
						if base != g.baseline {
							t.Fatalf("a step reports baseline AP %v, the loaded net scores %v", base, g.baseline)
						}
					}
					for r := 0; r < 2; r++ {
						exec, _, err := p.NewReplica()
						if err != nil {
							t.Fatal(err)
						}
						if !exact {
							gatedN++
							if v := g.check(exec); !v.Pass {
								t.Fatalf("replica %d: served AP %v, baseline %v: drop %v > ε %v", r, v.AP, g.baseline, v.Drop, eps)
							}
							continue
						}
						exactN++
						a := tensor.NewArena()
						for n := 1; n <= maxBatch; n++ {
							x := randClip(rng, n, 4, 40)
							a.Reset()
							got, want := exec.InferDetect(x, a, nil), Detect(ref, x)
							for i := range want {
								if got[i] != want[i] {
									t.Fatalf("replica %d batch %d clip %d: served %+v, Detect %+v", r, n, i, got[i], want[i])
								}
							}
						}
					}
				})
			}
		}
	}
	if exactN == 0 || gatedN == 0 {
		t.Fatalf("%d exact and %d gated replicas checked, want both", exactN, gatedN)
	}
}
