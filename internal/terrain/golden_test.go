package terrain

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.json from the current implementation")

const goldenPath = "testdata/golden.json"

// goldenConfigs are the generator configs whose every output bit is
// pinned: the three terrain regimes at 128² and 256²; every watershed the
// benchmark's sweep workloads generate (the three regimes of its two
// sweep_prior specs, the four sweep_dense seeds); and three non-square
// rasters, where a row/column mix-up or a band split that a square hides
// would show.
func goldenConfigs() map[string]Config {
	out := map[string]Config{}
	regimes := []Scenario{{Name: "default"}, {Name: RegimeFlatPlain, Regime: RegimeFlatPlain}, {Name: RegimeIncisedHills, Regime: RegimeIncisedHills}}
	for _, side := range []int{128, 256} {
		cfg := DefaultConfig()
		cfg.Rows, cfg.Cols = side, side
		cfg.RoadSpacing = 96
		cfg.StreamThreshold = 150
		if side == 128 {
			cfg.RoadSpacing = 56
			cfg.StreamThreshold = 60
		}
		for _, reg := range regimes {
			out[fmt.Sprintf("%d/%s", side, reg.Name)] = reg.Apply(cfg)
		}
	}
	// benchmark/load.go's priorSpec(21) and priorSpec(22).
	prior := priorConfig()
	out["512/sweep_prior"] = prior
	prior22 := prior
	prior22.Seed = 22
	for _, reg := range regimes[1:] {
		out["512/sweep_prior/"+reg.Name] = reg.Apply(prior)
	}
	for _, reg := range regimes {
		out["512/sweep_prior22/"+reg.Name] = reg.Apply(prior22)
	}
	// denseSpec(11..14): a 512² spec resolves its stream threshold to
	// 0.45·side and its road spacing to DefaultConfig's.
	for seed := int64(11); seed <= 14; seed++ {
		dense := DefaultConfig()
		dense.Seed = seed
		dense.StreamThreshold = 0.45 * 512
		out[fmt.Sprintf("512/sweep_dense%d", seed)] = dense
	}
	for _, shape := range [][2]int{{96, 160}, {200, 333}, {65, 64}} {
		cfg := DefaultConfig()
		cfg.Rows, cfg.Cols = shape[0], shape[1]
		cfg.Seed = 5
		cfg.RoadSpacing = 48
		cfg.StreamThreshold = 40
		out[fmt.Sprintf("%dx%d", shape[0], shape[1])] = cfg
	}
	return out
}

// goldenDigests hashes everything Generate returns and every suite
// scenario's rendering of it, for every golden config.
func goldenDigests(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	for name, cfg := range goldenConfigs() {
		w, err := Generate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name+"/base_dem"] = digest(w.BaseDEM.Data)
		out[name+"/dem"] = digest(w.DEM.Data)
		out[name+"/stream_mask"] = digest(w.StreamMask)
		out[name+"/wet_mask"] = digest(w.WetMask)
		out[name+"/road_mask"] = digest(w.RoadMask)
		crossings := make([][2]int64, len(w.Crossings))
		for i, p := range w.Crossings {
			crossings[i] = [2]int64{int64(p.R), int64(p.C)}
		}
		out[name+"/crossings"] = digest(crossings)
		for _, sc := range Scenarios() {
			out[name+"/render/"+sc.Name] = digest(RenderScenario(w, sc).Data())
		}
	}
	return out
}

// digest is the sha256 of a slice's little-endian bits.
func digest(v any) string {
	h := sha256.New()
	if err := binary.Write(h, binary.LittleEndian, v); err != nil {
		panic(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenDigests pins the generator and the renderer bit for bit
// against digests recorded before the raster preparation was rewritten
// (the first 91 at commit 15b4c1b, the other 156 at cb2b416, before the
// row noise evaluator and the level-queue flood). The worker pool sizes
// itself once per process, so the comparison runs in two child processes,
// GOMAXPROCS 1 and 4: a row-band split must not change a bit at either.
func TestGoldenDigests(t *testing.T) {
	if os.Getenv("DRAINNET_GOLDEN_CHILD") == "" && !*updateGolden {
		for _, procs := range []string{"1", "4"} {
			cmd := exec.Command(os.Args[0], "-test.run=^TestGoldenDigests$", "-test.count=1")
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
