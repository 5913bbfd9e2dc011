package terrain

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"drainnet/internal/tensor"
)

// Scenario perturbs watershed synthesis and rendering along the axes the
// sweep workload diversifies over (ROADMAP "diversify scenarios"): a
// seasonal NIR reflectance shift, per-pixel sensor noise, a cloud shadow,
// and the terrain regime (flat plain vs. incised hills). A scenario is
// pure data: the same watershed seed and scenario always produce
// bit-identical rasters (see TestScenarioRenderDeterministic).
type Scenario struct {
	// Name identifies the scenario in job specs, summaries and metrics.
	Name string `json:"name"`
	// NIRShift is added to the NIR band before clamping to [0,1]:
	// negative for senescent/leaf-off vegetation, positive for peak
	// green-up.
	NIRShift float64 `json:"nir_shift,omitempty"`
	// NoiseSigma is the standard deviation of zero-mean Gaussian sensor
	// noise added independently to every band sample.
	NoiseSigma float64 `json:"noise_sigma,omitempty"`
	// CloudShadow darkens one soft-edged elliptical region by this
	// fraction (0 disables, 0.5 halves the radiance under the cloud).
	// The ellipse placement derives from the watershed seed.
	CloudShadow float64 `json:"cloud_shadow,omitempty"`
	// Regime selects the terrain character: "" keeps the config as-is,
	// RegimeFlatPlain flattens relief (weak drainage, broad wetlands),
	// RegimeIncisedHills deepens it (strong relief, entrenched channels).
	Regime string `json:"regime,omitempty"`
}

// Terrain regimes selectable by Scenario.Regime.
const (
	RegimeFlatPlain    = "flat_plain"
	RegimeIncisedHills = "incised_hills"
)

// BaselineScenario is the unperturbed rendering the training set uses.
func BaselineScenario() Scenario { return Scenario{Name: "baseline"} }

// Scenarios returns the named scenario suite: the baseline plus one
// scenario per knob, so a sweep over the suite exercises every axis.
func Scenarios() []Scenario {
	return []Scenario{
		BaselineScenario(),
		{Name: "leaf_off", NIRShift: -0.18},
		{Name: "green_up", NIRShift: 0.12},
		{Name: "noisy_sensor", NoiseSigma: 0.03},
		{Name: "cloud_shadow", CloudShadow: 0.45},
		{Name: "flat_plain", Regime: RegimeFlatPlain},
		{Name: "incised_hills", Regime: RegimeIncisedHills},
	}
}

// ScenarioByName resolves a suite scenario; "" selects the baseline.
func ScenarioByName(name string) (Scenario, error) {
	if name == "" {
		return BaselineScenario(), nil
	}
	var known []string
	for _, s := range Scenarios() {
		if s.Name == name {
			return s, nil
		}
		known = append(known, s.Name)
	}
	return Scenario{}, fmt.Errorf("terrain: unknown scenario %q (have %s)", name, strings.Join(known, ", "))
}

// Apply folds the scenario's terrain regime into a watershed config.
// Rendering knobs (NIR shift, noise, shadow) do not alter the config;
// they act in Perturb.
func (s Scenario) Apply(cfg Config) Config {
	switch s.Regime {
	case "", "default":
	case RegimeFlatPlain:
		// Subdued loess plain: little local relief, a gentler regional
		// slope, and diffuse accumulation (streams need more catchment).
		cfg.ReliefM *= 0.4
		cfg.RegionalDropM *= 0.6
		cfg.StreamThreshold *= 0.8
	case RegimeIncisedHills:
		// Dissected uplands: strong relief and entrenched channels that
		// concentrate flow quickly.
		cfg.ReliefM *= 2.0
		cfg.RegionalDropM *= 1.5
		cfg.StreamThreshold *= 1.2
	default:
		// Unknown regimes are a programmer error surfaced by Validate-time
		// ScenarioByName; keep Apply total for direct struct literals.
	}
	return cfg
}

// RenderScenario renders the watershed's orthophoto under the scenario's
// imaging conditions: Render, then Perturb.
func RenderScenario(w *Watershed, s Scenario) *tensor.Tensor {
	img := Render(w)
	Perturb(img, w, s)
	return img
}

// Perturb applies the scenario's imaging conditions in place to img, the
// watershed's Render. The perturbation stream is seeded from the
// watershed seed and the scenario name, so every (config, scenario) pair
// renders bit-identically across processes. Scenarios sharing a
// watershed can each perturb a copy of one Render.
func Perturb(img *tensor.Tensor, w *Watershed, s Scenario) {
	if s.NIRShift == 0 && s.NoiseSigma == 0 && s.CloudShadow == 0 {
		return
	}
	cfg := w.Cfg
	rng := rand.New(rand.NewSource(cfg.Seed ^ scenarioSeed(s.Name)))
	rows, cols := cfg.Rows, cfg.Cols
	plane := rows * cols
	data := img.Data()

	// Seasonal NIR shift: a uniform offset on the NIR band.
	if s.NIRShift != 0 {
		nir := data[BandNIR*plane : (BandNIR+1)*plane]
		for i, v := range nir {
			nir[i] = clampUnit(v + float32(s.NIRShift))
		}
	}

	// Cloud shadow: one soft-edged ellipse covering roughly a quarter of
	// the raster, darkening all bands. Drawn before sensor noise so the
	// noise floor is unaffected (shadows attenuate signal, not read noise).
	if s.CloudShadow > 0 {
		cr := float64(rows) * (0.25 + 0.5*rng.Float64())
		cc := float64(cols) * (0.25 + 0.5*rng.Float64())
		ry := float64(rows) * (0.18 + 0.12*rng.Float64())
		rx := float64(cols) * (0.22 + 0.15*rng.Float64())
		for r := 0; r < rows; r++ {
			dy := (float64(r) - cr) / ry
			for c := 0; c < cols; c++ {
				dx := (float64(c) - cc) / rx
				d := dx*dx + dy*dy
				if d >= 1 {
					continue
				}
				// Smoothstep falloff: full darkening at the center, fading
				// to nothing at the ellipse boundary.
				edge := 1 - d
				atten := 1 - s.CloudShadow*edge*edge*(3-2*edge)
				i := r*cols + c
				for b := 0; b < NumBands; b++ {
					data[b*plane+i] = float32(float64(data[b*plane+i]) * atten)
				}
			}
		}
	}

	// Sensor noise: i.i.d. Gaussian per band sample, clamped like Render.
	if s.NoiseSigma > 0 {
		for i, v := range data {
			data[i] = clampUnit(v + float32(rng.NormFloat64()*s.NoiseSigma))
		}
	}
}

func clampUnit(v float32) float32 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// scenarioSeed hashes a scenario name into a seed offset, so scenarios
// sharing a watershed seed still draw independent perturbation streams.
func scenarioSeed(name string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return int64(h.Sum64() & 0x7fffffffffffffff)
}
