package terrain

import (
	"math"
	"slices"
	"testing"
)

func scenarioTestConfig() Config {
	cfg := DefaultConfig()
	cfg.Rows, cfg.Cols = 192, 192
	cfg.RoadSpacing = 72
	cfg.StreamThreshold = 120
	return cfg
}

// Same seed and scenario must produce bit-identical rasters, generation
// through rendering — the sweep checkpoint/resume proof leans on this.
func TestScenarioRenderDeterministic(t *testing.T) {
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			cfg := sc.Apply(scenarioTestConfig())
			w1, err := Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			w2, err := Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(w1.Crossings) != len(w2.Crossings) {
				t.Fatalf("crossing counts differ: %d vs %d", len(w1.Crossings), len(w2.Crossings))
			}
			for i := range w1.Crossings {
				if w1.Crossings[i] != w2.Crossings[i] {
					t.Fatalf("crossing %d differs: %v vs %v", i, w1.Crossings[i], w2.Crossings[i])
				}
			}
			a, b := RenderScenario(w1, sc), RenderScenario(w2, sc)
			da, db := a.Data(), b.Data()
			if len(da) != len(db) {
				t.Fatalf("raster sizes differ: %d vs %d", len(da), len(db))
			}
			for i := range da {
				if da[i] != db[i] {
					t.Fatalf("pixel %d differs: %v vs %v", i, da[i], db[i])
				}
			}
		})
	}
}

// Every non-baseline scenario must actually change something: either the
// generated terrain (regimes) or the rendered radiance (imaging knobs).
func TestScenarioPerturbationsTakeEffect(t *testing.T) {
	base := scenarioTestConfig()
	wBase, err := Generate(base)
	if err != nil {
		t.Fatal(err)
	}
	imgBase := Render(wBase)
	for _, sc := range Scenarios() {
		if sc.Name == "baseline" {
			continue
		}
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			cfg := sc.Apply(base)
			if sc.Regime != "" {
				if cfg == base {
					t.Fatalf("regime %q left the config unchanged", sc.Regime)
				}
				w, err := Generate(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if len(w.Crossings) == 0 {
					t.Fatal("regime generated no crossings")
				}
				return
			}
			img := RenderScenario(wBase, sc)
			diff := 0
			da, db := img.Data(), imgBase.Data()
			for i := range da {
				if da[i] != db[i] {
					diff++
				}
			}
			if diff == 0 {
				t.Fatalf("scenario %q rendered identically to the baseline", sc.Name)
			}
		})
	}
}

// One Render serves every scenario of a watershed: perturbing a copy of
// it gives RenderScenario's raster bit for bit, for all seven scenarios,
// and leaves the shared render as Render made it.
func TestPerturbOfOneRenderEqualsRenderScenario(t *testing.T) {
	for _, sc := range Scenarios() {
		w, err := Generate(sc.Apply(scenarioTestConfig()))
		if err != nil {
			t.Fatal(err)
		}
		base := Render(w)
		img := base.Clone()
		Perturb(img, w, sc)
		if want := RenderScenario(w, sc); !slices.Equal(bitsOf(img.Data()), bitsOf(want.Data())) {
			t.Errorf("%s: Perturb of a Render differs from RenderScenario", sc.Name)
		}
		if !slices.Equal(bitsOf(base.Data()), bitsOf(Render(w).Data())) {
			t.Errorf("%s: perturbing a copy changed the shared render", sc.Name)
		}
	}
}

func bitsOf(v []float32) []uint32 {
	out := make([]uint32, len(v))
	for i, x := range v {
		out[i] = math.Float32bits(x)
	}
	return out
}

// Scenario values must stay in the renderer's [0,1] radiance contract.
func TestScenarioRenderStaysInRange(t *testing.T) {
	cfg := scenarioTestConfig()
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range Scenarios() {
		if sc.Regime != "" {
			continue
		}
		img := RenderScenario(w, sc)
		for i, v := range img.Data() {
			if v < 0 || v > 1 {
				t.Fatalf("scenario %q pixel %d = %v out of [0,1]", sc.Name, i, v)
			}
		}
	}
}

func TestScenarioByName(t *testing.T) {
	sc, err := ScenarioByName("cloud_shadow")
	if err != nil {
		t.Fatal(err)
	}
	if sc.CloudShadow == 0 {
		t.Fatal("cloud_shadow scenario has no shadow")
	}
	if sc, err := ScenarioByName(""); err != nil || sc.Name != "baseline" {
		t.Fatalf("empty name should resolve to baseline, got %+v, %v", sc, err)
	}
	if _, err := ScenarioByName("volcano"); err == nil {
		t.Fatal("unknown scenario should error")
	}
}
