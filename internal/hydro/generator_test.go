package hydro_test

import (
	"fmt"
	"reflect"
	"testing"

	"drainnet/internal/hydro"
	"drainnet/internal/terrain"
)

// raceDetector is set in builds with the race detector, which runs the
// floods here about ten times slower.
var raceDetector bool

// generatorDEMs are the base DEMs the watershed generator floods: the
// 512² default config at ten seeds (the benchmark harness's sweep seeds
// among them) under each of the seven suite scenarios. The imaging
// scenarios leave the config alone, so the 70 pairs hold 30 distinct
// terrains; each is generated once. Under the race detector, which looks
// for unsynchronised access rather than wrong surfaces, only the two
// sweep_prior seeds: 6 terrains.
func generatorDEMs(t *testing.T) map[string]*hydro.Grid {
	t.Helper()
	seeds := []int64{21, 22, 11, 12, 13, 14, 2022, 1, 2, 3}
	if raceDetector {
		seeds = seeds[:2]
	}
	dems := map[string]*hydro.Grid{}
	seen := map[terrain.Config]bool{}
	for _, seed := range seeds {
		for _, sc := range terrain.Scenarios() {
			cfg := terrain.DefaultConfig()
			cfg.Seed = seed
			cfg = sc.Apply(cfg)
			if seen[cfg] {
				continue
			}
			seen[cfg] = true
			w, err := terrain.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			dems[fmt.Sprintf("seed_%d/%s", seed, sc.Name)] = w.BaseDEM
		}
	}
	return dems
}

// Every tile count floods the generator's terrain to the container/heap
// oracle's surface bit for bit, and D8 on that surface (the generator's
// stream mask) matches the bounds-checked, always-dividing directions.
func TestGeneratorDEMsAtEveryTileCount(t *testing.T) {
	if testing.Short() {
		t.Skip("floods 30 512² rasters 9 times each")
	}
	for name, dem := range generatorDEMs(t) {
		want := hydro.RefFillDepressions(dem)
		for k := 1; k <= 8; k++ {
			if got := hydro.FillTiles(dem, k); !hydro.SameBits(got.Data, want.Data) {
				t.Errorf("%s: %d tiles: filled surface differs from the container/heap implementation", name, k)
			}
		}
		if got, want := hydro.D8FlowDirections(want), hydro.RefD8FlowDirections(want); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: D8 directions on the filled surface differ from the bounds-checked implementation", name)
		}
	}
}
