package model

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"drainnet/internal/graph"
	"drainnet/internal/nn"
	"drainnet/internal/tensor"
)

func TestPresetsMatchTable1(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string
	}{
		{OriginalSPPNet(), "C64,3,1-P2,2-C128,3,1-P2,2-C256,3,1-P2,2-SPP4,2,1-F1024"},
		{SPPNet1(), "C64,5,1-P2,2-C128,3,1-P2,2-C256,3,1-P2,2-SPP4,2,1-F1024"},
		{SPPNet2(), "C64,3,1-P2,2-C128,3,1-P2,2-C256,3,1-P2,2-SPP5,2,1-F4096"},
		{SPPNet3(), "C64,3,1-P2,2-C128,3,1-P2,2-C256,3,1-P2,2-SPP5,2,1-F2048"},
	}
	for _, c := range cases {
		if got := c.cfg.Notation(); got != c.want {
			t.Fatalf("%s notation = %q, want %q", c.cfg.Name, got, c.want)
		}
	}
}

func TestParseNotationRoundTrip(t *testing.T) {
	for _, cfg := range Candidates() {
		parsed, err := ParseNotation(cfg.Name, cfg.Notation())
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if parsed.Notation() != cfg.Notation() {
			t.Fatalf("round trip changed notation: %q vs %q", parsed.Notation(), cfg.Notation())
		}
	}
}

func TestParseNotationErrors(t *testing.T) {
	for _, bad := range []string{
		"", "X9", "C64,3", "P2,2-C64,3,1", "C64,3,1-SPP0-F128", "C64,3,1-SPPx-F128",
		"C64,3,1-SPP2,1", "C64,3,1-F0-SPP2,1",
	} {
		if _, err := ParseNotation("bad", bad); err == nil {
			t.Fatalf("expected parse error for %q", bad)
		}
	}
}

func TestValidateCatchesVanishingFeatureMap(t *testing.T) {
	cfg := OriginalSPPNet().WithInput(4, 8) // 8→4→2→1: SPP level 4 impossible
	if err := cfg.Validate(); err == nil {
		t.Fatal("expected validation error")
	}
}

// TestValidateRejectsBadPool: a pool with a size but no stride, or a
// negative size, is an error, not a division by zero — whether it comes
// from the notation or from a config decoded out of a NAS plan.json.
func TestValidateRejectsBadPool(t *testing.T) {
	cfg, err := ParseNotation("x", "C64,3,1-P2,0-C128,3,1-P2,2-C256,3,1-P2,2-SPP4,2,1-F1024")
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.WithInput(4, 40).Validate(); err == nil {
		t.Fatal("P2,0 validated")
	}
	var plan Config
	if err := json.Unmarshal([]byte(`{"Name":"plan","InBands":4,"InSize":40,"HeadOut":5,"FCWidth":64,"WidthScale":16,
		"SPPLevels":[2,1],"Convs":[{"Filters":64,"Kernel":3,"Stride":1,"PoolSize":2,"PoolStride":0}]}`), &plan); err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(); err == nil {
		t.Fatal("plan config with PoolStride 0 validated")
	}
	plan.Convs[0].PoolSize, plan.Convs[0].PoolStride = -2, 2
	if err := plan.Validate(); err == nil {
		t.Fatal("plan config with PoolSize -2 validated")
	}
	plan.Convs[0].PoolSize = 2
	if err := plan.Validate(); err != nil {
		t.Fatalf("P2,2 rejected: %v", err)
	}
}

func TestSPPFeatures(t *testing.T) {
	cfg := SPPNet2()
	if got := cfg.SPPFeatures(); got != 256*(25+4+1) {
		t.Fatalf("SPPFeatures = %d, want %d", got, 256*30)
	}
	scaled := cfg.Scaled(4)
	if got := scaled.SPPFeatures(); got != 64*30 {
		t.Fatalf("scaled SPPFeatures = %d, want %d", got, 64*30)
	}
}

func TestBuildForwardShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := OriginalSPPNet().Scaled(8).WithInput(4, 48)
	net, err := cfg.Build(rng)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(2, 4, 48, 48)
	x.RandNormal(rng, 0, 1)
	out := net.Forward(x)
	if out.Dim(0) != 2 || out.Dim(1) != 5 {
		t.Fatalf("output shape %v, want [2 5]", out.Shape())
	}
}

func TestBuildAcceptsVariableInputSizes(t *testing.T) {
	// The defining SPP-Net property: one network, any input size.
	rng := rand.New(rand.NewSource(2))
	cfg := OriginalSPPNet().Scaled(8).WithInput(4, 48)
	net, err := cfg.Build(rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{40, 48, 64, 100} {
		x := tensor.New(1, 4, size, size)
		x.RandNormal(rng, 0, 1)
		out := net.Forward(x)
		if out.Dim(1) != 5 {
			t.Fatalf("size %d: output %v", size, out.Shape())
		}
	}
}

func TestBuildGraphMatchesArchitecture(t *testing.T) {
	cfg := SPPNet2()
	g, err := cfg.BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	// input + 3 conv + 3 pool + 3 spp + concat + 2 fc = 13 nodes.
	if len(g.Nodes) != 13 {
		t.Fatalf("graph nodes = %d, want 13", len(g.Nodes))
	}
	var sppCount int
	for _, n := range g.Nodes {
		if n.Kind == graph.OpAdaptivePool {
			sppCount++
		}
	}
	if sppCount != len(cfg.SPPLevels) {
		t.Fatalf("spp branches = %d, want %d", sppCount, len(cfg.SPPLevels))
	}
}

// BuildScaledGraph must agree with the scaled network Build produces:
// every conv, pool, SPP and FC layer's output has the shape of its
// graph node, in order.
func TestBuildScaledGraphMatchesBuild(t *testing.T) {
	cfg := SPPNet2().Scaled(4).WithInput(4, 50)
	net, err := cfg.Build(rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.BuildScaledGraph()
	if err != nil {
		t.Fatal(err)
	}
	if err := graphMatchesNet(g, net, cfg); err != nil {
		t.Fatalf("scaled graph does not match the scaled network: %v", err)
	}
	// The unscaled graph must NOT match at scale > 1 — that mismatch is
	// exactly why BuildScaledGraph exists.
	ug, err := cfg.BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	if err := graphMatchesNet(ug, net, cfg); err == nil {
		t.Fatal("unscaled graph unexpectedly matches a scaled network")
	}
}

// graphMatchesNet runs one clip through net layer by layer and compares
// each non-activation layer's per-sample output shape with the next
// conv, pool, concat or FC node of g.
func graphMatchesNet(g *graph.Graph, net *nn.Sequential, cfg Config) error {
	var nodes []*graph.Node
	for _, n := range g.Nodes {
		switch n.Kind {
		case graph.OpConv, graph.OpPool, graph.OpConcat, graph.OpMatMul:
			nodes = append(nodes, n)
		}
	}
	x := tensor.New(1, cfg.InBands, cfg.InSize, cfg.InSize)
	for i, m := range net.Modules() {
		x = m.Forward(x)
		if _, act := m.(*nn.ReLU); act {
			continue
		}
		if len(nodes) == 0 {
			return fmt.Errorf("module %d has no graph node", i)
		}
		if got, want := fmt.Sprint(x.Shape()[1:]), fmt.Sprint(nodes[0].OutShape); got != want {
			return fmt.Errorf("module %d outputs %s, node %q %s", i, got, nodes[0].Name, want)
		}
		nodes = nodes[1:]
	}
	if len(nodes) != 0 {
		return fmt.Errorf("%d graph nodes without a module", len(nodes))
	}
	return nil
}

func TestBuildGraphFC1InputWidth(t *testing.T) {
	cfg := SPPNet2()
	g, err := cfg.BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range g.Nodes {
		if n.Name == "fc1" {
			if n.InShape[0] != cfg.SPPFeatures() {
				t.Fatalf("fc1 input %d, want %d", n.InShape[0], cfg.SPPFeatures())
			}
			return
		}
	}
	t.Fatal("fc1 not found")
}

func TestDetectScoresAndClamps(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := OriginalSPPNet().Scaled(16).WithInput(4, 32)
	net, err := cfg.Build(rng)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(3, 4, 32, 32)
	x.RandNormal(rng, 0, 1)
	dets := Detect(net, x)
	if len(dets) != 3 {
		t.Fatalf("detections = %d", len(dets))
	}
	for _, d := range dets {
		if d.Score < 0 || d.Score > 1 {
			t.Fatalf("score %v out of range", d.Score)
		}
		if d.Box.CX < 0 || d.Box.CX > 1 || d.Box.W < 0 || d.Box.W > 1 {
			t.Fatalf("box %v not clamped", d.Box)
		}
	}
}

func TestTargetsToGroundTruth(t *testing.T) {
	targets := []nn.DetectionTarget{
		{HasObject: true, CX: 0.5, CY: 0.25, W: 0.1, H: 0.2},
		{HasObject: false},
	}
	gts := TargetsToGroundTruth(targets)
	if len(gts) != 2 {
		t.Fatalf("len = %d", len(gts))
	}
	if !gts[0].HasObject || gts[0].Box.CY != 0.25 {
		t.Fatalf("gt[0] = %+v", gts[0])
	}
	if gts[1].HasObject {
		t.Fatal("gt[1] must be background")
	}
}
