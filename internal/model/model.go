// Package model defines the SPP-Net model family from the paper's Table 1
// and builds each configuration both as a trainable network (internal/nn)
// and as an inference graph (internal/graph) for the IOS scheduler and GPU
// simulator. Configurations round-trip through the paper's layer notation,
// e.g. "C64,3,1-P2,2-C128,3,1-P2,2-C256,3,1-P2,2-SPP4,2,1-F1024".
package model

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"drainnet/internal/graph"
	"drainnet/internal/nn"
)

// ConvSpec is one convolution block: C_{filters,kernel,stride} followed by
// an optional pool P_{poolSize,poolStride}.
type ConvSpec struct {
	Filters, Kernel, Stride int
	PoolSize, PoolStride    int // 0 = no pool
}

// Config describes one SPP-Net architecture.
type Config struct {
	Name string
	// InBands and InSize describe the input (4-band 100×100 clips).
	InBands, InSize int
	// Convs are the feature-engineering blocks.
	Convs []ConvSpec
	// SPPLevels are the pyramid levels, coarsest first (e.g. 4,2,1).
	SPPLevels []int
	// FCWidth is the hidden fully-connected width.
	FCWidth int
	// HeadOut is the detection head width (5: objectness + box).
	HeadOut int
	// WidthScale divides all channel and FC widths (≥1). Scale 1 is the
	// paper's architecture; larger scales give proportionally smaller
	// models for fast CPU training in tests and benches. Scaling preserves
	// the architecture family and the relative ordering NAS explores.
	WidthScale int
}

// Table 1 presets. Subscripts follow the paper: C_{filters,kernel,stride},
// P_{size,stride}, SPP_{levels...}, F_{width}.

// OriginalSPPNet is C64,3,1-P2,2-C128,3,1-P2,2-C256,3,1-P2,2-SPP4,2,1-F1024.
func OriginalSPPNet() Config {
	return preset("Original SPP-Net", 3, []int{4, 2, 1}, 1024)
}

// SPPNet1 is C64,5,1-P2,2-C128,3,1-P2,2-C256,3,1-P2,2-SPP4,2,1-F1024.
func SPPNet1() Config {
	return preset("SPP-Net #1", 5, []int{4, 2, 1}, 1024)
}

// SPPNet2 is C64,3,1-P2,2-C128,3,1-P2,2-C256,3,1-P2,2-SPP5,2,1-F4096.
func SPPNet2() Config {
	return preset("SPP-Net #2", 3, []int{5, 2, 1}, 4096)
}

// SPPNet3 is C64,3,1-P2,2-C128,3,1-P2,2-C256,3,1-P2,2-SPP5,2,1-F2048.
func SPPNet3() Config {
	return preset("SPP-Net #3", 3, []int{5, 2, 1}, 2048)
}

// Candidates returns the four Table 1 configurations in paper order.
func Candidates() []Config {
	return []Config{OriginalSPPNet(), SPPNet1(), SPPNet2(), SPPNet3()}
}

func preset(name string, conv1Kernel int, levels []int, fc int) Config {
	return Config{
		Name:    name,
		InBands: 4, InSize: 100,
		Convs: []ConvSpec{
			{Filters: 64, Kernel: conv1Kernel, Stride: 1, PoolSize: 2, PoolStride: 2},
			{Filters: 128, Kernel: 3, Stride: 1, PoolSize: 2, PoolStride: 2},
			{Filters: 256, Kernel: 3, Stride: 1, PoolSize: 2, PoolStride: 2},
		},
		SPPLevels:  append([]int(nil), levels...),
		FCWidth:    fc,
		HeadOut:    5,
		WidthScale: 1,
	}
}

// Scaled returns a copy with the given width scale.
func (c Config) Scaled(scale int) Config {
	if scale < 1 {
		scale = 1
	}
	c.WidthScale = scale
	return c
}

// WithInput returns a copy with a different input geometry.
func (c Config) WithInput(bands, size int) Config {
	c.InBands, c.InSize = bands, size
	return c
}

func (c Config) filters(f int) int {
	v := f / c.WidthScale
	if v < 1 {
		v = 1
	}
	return v
}

// ScaledWidth returns a nominal width (filter count or FC width) after
// applying the config's width scale — the actual layer width Build uses.
func (c Config) ScaledWidth(w int) int { return c.filters(w) }

// SPPFeatures returns the flattened feature count after the SPP layer.
func (c Config) SPPFeatures() int {
	lastC := c.filters(c.Convs[len(c.Convs)-1].Filters)
	total := 0
	for _, l := range c.SPPLevels {
		total += l * l
	}
	return lastC * total
}

// Notation renders the paper's layer notation for the unscaled config.
func (c Config) Notation() string {
	var parts []string
	for _, cv := range c.Convs {
		parts = append(parts, fmt.Sprintf("C%d,%d,%d", cv.Filters, cv.Kernel, cv.Stride))
		if cv.PoolSize > 0 {
			parts = append(parts, fmt.Sprintf("P%d,%d", cv.PoolSize, cv.PoolStride))
		}
	}
	lv := make([]string, len(c.SPPLevels))
	for i, l := range c.SPPLevels {
		lv[i] = strconv.Itoa(l)
	}
	parts = append(parts, "SPP"+strings.Join(lv, ","))
	parts = append(parts, fmt.Sprintf("F%d", c.FCWidth))
	return strings.Join(parts, "-")
}

// ParseNotation parses the paper's layer notation into a Config with the
// default input geometry.
func ParseNotation(name, s string) (Config, error) {
	cfg := Config{Name: name, InBands: 4, InSize: 100, HeadOut: 5, WidthScale: 1}
	parts := strings.Split(s, "-")
	for _, p := range parts {
		switch {
		case strings.HasPrefix(p, "SPP"):
			for _, f := range strings.Split(p[3:], ",") {
				v, err := strconv.Atoi(f)
				if err != nil || v < 1 {
					return cfg, fmt.Errorf("model: bad SPP level %q in %q", f, s)
				}
				cfg.SPPLevels = append(cfg.SPPLevels, v)
			}
		case strings.HasPrefix(p, "C"):
			var f, k, st int
			if _, err := fmt.Sscanf(p, "C%d,%d,%d", &f, &k, &st); err != nil {
				return cfg, fmt.Errorf("model: bad conv spec %q in %q", p, s)
			}
			cfg.Convs = append(cfg.Convs, ConvSpec{Filters: f, Kernel: k, Stride: st})
		case strings.HasPrefix(p, "P"):
			if len(cfg.Convs) == 0 {
				return cfg, fmt.Errorf("model: pool before conv in %q", s)
			}
			var ps, pst int
			if _, err := fmt.Sscanf(p, "P%d,%d", &ps, &pst); err != nil {
				return cfg, fmt.Errorf("model: bad pool spec %q in %q", p, s)
			}
			last := &cfg.Convs[len(cfg.Convs)-1]
			last.PoolSize, last.PoolStride = ps, pst
		case strings.HasPrefix(p, "F"):
			v, err := strconv.Atoi(p[1:])
			if err != nil || v < 1 {
				return cfg, fmt.Errorf("model: bad FC spec %q in %q", p, s)
			}
			cfg.FCWidth = v
		default:
			return cfg, fmt.Errorf("model: unknown layer %q in %q", p, s)
		}
	}
	if len(cfg.Convs) == 0 || len(cfg.SPPLevels) == 0 || cfg.FCWidth == 0 {
		return cfg, fmt.Errorf("model: incomplete notation %q", s)
	}
	return cfg, nil
}

// Validate checks the configuration for buildability.
func (c Config) Validate() error {
	if c.InBands < 1 || c.InSize < 8 {
		return fmt.Errorf("model %s: invalid input %d×%d×%d", c.Name, c.InBands, c.InSize, c.InSize)
	}
	if len(c.Convs) == 0 || len(c.SPPLevels) == 0 || c.FCWidth < 1 || c.HeadOut < 5 {
		return fmt.Errorf("model %s: incomplete config", c.Name)
	}
	size := c.InSize
	for i, cv := range c.Convs {
		if cv.Kernel < 1 || cv.Stride < 1 || cv.Filters < 1 {
			return fmt.Errorf("model %s: bad conv block %d", c.Name, i)
		}
		if cv.PoolSize < 0 || (cv.PoolSize > 0 && cv.PoolStride < 1) {
			return fmt.Errorf("model %s: bad pool P%d,%d at block %d", c.Name, cv.PoolSize, cv.PoolStride, i)
		}
		size = (size+2*(cv.Kernel/2)-cv.Kernel)/cv.Stride + 1
		if cv.PoolSize > 0 {
			size = (size-cv.PoolSize)/cv.PoolStride + 1
		}
		if size < 1 {
			return fmt.Errorf("model %s: feature map vanishes at block %d", c.Name, i)
		}
	}
	for _, l := range c.SPPLevels {
		if l < 1 || l > size {
			return fmt.Errorf("model %s: SPP level %d exceeds feature map %d", c.Name, l, size)
		}
	}
	return nil
}

// Build constructs the trainable network: conv blocks with ReLU and max
// pooling, the SPP layer, one hidden FC with ReLU, and the 5-way
// detection head (objectness logit + normalized box).
func (c Config) Build(rng *rand.Rand) (*nn.Sequential, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	net := nn.NewSequential()
	inC := c.InBands
	for _, cv := range c.Convs {
		f := c.filters(cv.Filters)
		net.Add(nn.NewConv2D(rng, inC, f, cv.Kernel, cv.Stride))
		net.Add(nn.NewReLU())
		if cv.PoolSize > 0 {
			net.Add(nn.NewMaxPool2D(cv.PoolSize, cv.PoolStride))
		}
		inC = f
	}
	net.Add(nn.NewSPP(c.SPPLevels...))
	fcw := c.filters(c.FCWidth)
	net.Add(nn.NewLinear(rng, c.SPPFeatures(), fcw))
	net.Add(nn.NewReLU())
	net.Add(nn.NewLinear(rng, fcw, c.HeadOut))
	return net, nil
}

// BuildGraph constructs the inference IR for the (unscaled) architecture,
// with activations fused into the producing kernels: the paper's widths,
// which the GPU-simulator experiments price Table 1 models at.
func (c Config) BuildGraph() (*graph.Graph, error) {
	return c.buildGraph(func(f int) int { return f })
}

// BuildScaledGraph constructs the inference IR at the config's width
// scale: the graph whose shapes match the network Build returns.
func (c Config) BuildScaledGraph() (*graph.Graph, error) {
	return c.buildGraph(c.filters)
}

// buildGraph lays out the IR with every conv and FC width mapped by width.
func (c Config) buildGraph(width func(int) int) (*graph.Graph, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	g := graph.NewGraph(c.Name, c.InBands, c.InSize, c.InSize)
	x := g.In
	for i, cv := range c.Convs {
		x = g.Conv(x, fmt.Sprintf("conv%d", i+1), width(cv.Filters), cv.Kernel, cv.Stride)
		if cv.PoolSize > 0 {
			x = g.Pool(x, fmt.Sprintf("pool%d", i+1), cv.PoolSize, cv.PoolStride)
		}
	}
	var branches []*graph.Node
	for _, l := range c.SPPLevels {
		branches = append(branches, g.AdaptivePool(x, fmt.Sprintf("spp_l%d", l), l))
	}
	cat := g.Concat(branches, "spp_concat")
	h := g.FC(cat, "fc1", width(c.FCWidth))
	g.FC(h, "head", c.HeadOut)
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}
