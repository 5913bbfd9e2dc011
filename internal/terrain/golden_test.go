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
// pinned: the three terrain regimes at 128² and 256², plus the 512²
// watershed a sweep_prior job of the benchmark generates first.
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
	prior := DefaultConfig()
	prior.Seed = 21
	prior.RoadSpacing = 256
	prior.StreamThreshold = 460.8
	out["512/sweep_prior"] = prior
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
// (commit 15b4c1b). The worker pool sizes itself once per process, so the
// comparison runs in two child processes, GOMAXPROCS 1 and 4: a row-band
// split must not change a bit at either.
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
