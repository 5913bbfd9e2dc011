package terrain

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"drainnet/internal/hydro"
	"drainnet/internal/tensor"
)

// testConfig is a small, fast watershed for unit tests.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Rows, cfg.Cols = 256, 256
	cfg.RoadSpacing = 96
	cfg.StreamThreshold = 150
	return cfg
}

func genTest(t *testing.T) *Watershed {
	t.Helper()
	w, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Crossings) != len(b.Crossings) {
		t.Fatalf("crossings differ across runs: %d vs %d", len(a.Crossings), len(b.Crossings))
	}
	for i := range a.DEM.Data {
		if a.DEM.Data[i] != b.DEM.Data[i] {
			t.Fatal("DEM not deterministic")
		}
	}
}

func TestGenerateTooSmallFails(t *testing.T) {
	cfg := testConfig()
	cfg.Rows = 10
	if _, err := Generate(cfg); err == nil {
		t.Fatal("expected error for tiny raster")
	}
}

func TestRegionalSlopeWestToEast(t *testing.T) {
	w := genTest(t)
	// Average elevation of the west quarter must exceed the east quarter.
	var west, east float64
	n := 0
	for r := 0; r < w.Cfg.Rows; r++ {
		for c := 0; c < w.Cfg.Cols/4; c++ {
			west += w.BaseDEM.At(r, c)
			east += w.BaseDEM.At(r, w.Cfg.Cols-1-c)
			n++
		}
	}
	if west/float64(n) <= east/float64(n) {
		t.Fatal("terrain must descend west→east")
	}
}

func TestCrossingsLieOnRoadsAndNearStreams(t *testing.T) {
	w := genTest(t)
	for _, p := range w.Crossings {
		i := p.R*w.Cfg.Cols + p.C
		if !w.RoadMask[i] {
			t.Fatalf("crossing %v not on a road", p)
		}
		if !nearStream(w, p.R, p.C, 4) {
			t.Fatalf("crossing %v not near a stream", p)
		}
	}
}

func TestEmbankmentsRaiseDEM(t *testing.T) {
	w := genTest(t)
	for i, road := range w.RoadMask {
		diff := w.DEM.Data[i] - w.BaseDEM.Data[i]
		if road && math.Abs(diff-w.Cfg.EmbankmentM) > 1e-9 {
			t.Fatalf("road cell %d raised by %v, want %v", i, diff, w.Cfg.EmbankmentM)
		}
		if !road && diff != 0 {
			t.Fatalf("non-road cell %d modified", i)
		}
	}
}

func TestDigitalDamsInWatershed(t *testing.T) {
	// The road embankments must measurably damage hydrologic connectivity,
	// and breaching at the true crossings must restore (most of) it.
	w := genTest(t)
	base := hydro.ConnectivityScore(w.BaseDEM, w.Cfg.StreamThreshold)
	dammed := hydro.ConnectivityScore(w.DEM, w.Cfg.StreamThreshold)
	if dammed >= base {
		t.Fatalf("embankments must reduce connectivity: base %v, dammed %v", base, dammed)
	}
	breached := w.DEM.Clone()
	hydro.BreachAll(breached, w.Crossings, 4)
	restored := hydro.ConnectivityScore(breached, w.Cfg.StreamThreshold)
	if restored <= dammed {
		t.Fatalf("breaching must improve connectivity: dammed %v, restored %v", dammed, restored)
	}
}

func TestRenderShapeAndRange(t *testing.T) {
	w := genTest(t)
	img := Render(w)
	if img.Dim(0) != NumBands || img.Dim(1) != w.Cfg.Rows || img.Dim(2) != w.Cfg.Cols {
		t.Fatalf("image shape %v", img.Shape())
	}
	for _, v := range img.Data() {
		if v < 0 || v > 1 {
			t.Fatalf("pixel %v out of [0,1]", v)
		}
	}
}

func TestRenderSignatures(t *testing.T) {
	w := genTest(t)
	img := Render(w)
	// Streams must be NIR-dark; crossings must be bright in red.
	var s hydro.Point
	found := false
	for i, isStream := range w.StreamMask {
		if isStream && !w.RoadMask[i] {
			s = hydro.Point{R: i / w.Cfg.Cols, C: i % w.Cfg.Cols}
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no stream cell")
	}
	if img.At(BandNIR, s.R, s.C) > 0.2 {
		t.Fatalf("stream NIR = %v, want dark", img.At(BandNIR, s.R, s.C))
	}
	p := w.Crossings[0]
	if img.At(BandR, p.R, p.C) < 0.7 {
		t.Fatalf("crossing red = %v, want bright concrete", img.At(BandR, p.R, p.C))
	}
}

func buildTestDataset(t *testing.T, clip ClipConfig) (*Watershed, *Dataset) {
	t.Helper()
	w := genTest(t)
	img := Render(w)
	ds, err := BuildDataset(w, img, clip)
	if err != nil {
		t.Fatal(err)
	}
	return w, ds
}

func TestBuildDatasetBalance(t *testing.T) {
	cc := DefaultClipConfig()
	cc.Size = 64
	_, ds := buildTestDataset(t, cc)
	pos := ds.Positives()
	neg := len(ds.Samples) - pos
	if pos == 0 || neg == 0 {
		t.Fatalf("dataset must contain both classes: %d pos, %d neg", pos, neg)
	}
	if neg > pos*cc.NegativesPerPositive {
		t.Fatalf("negatives %d exceed requested ratio (pos %d)", neg, pos)
	}
}

func TestPositiveTargetsInUnitRange(t *testing.T) {
	cc := DefaultClipConfig()
	cc.Size = 64
	_, ds := buildTestDataset(t, cc)
	for _, s := range ds.Samples {
		if !s.Target.HasObject {
			continue
		}
		if s.Target.CX < 0 || s.Target.CX > 1 || s.Target.CY < 0 || s.Target.CY > 1 {
			t.Fatalf("box center out of range: %+v", s.Target)
		}
		if s.Target.W <= 0 || s.Target.H <= 0 {
			t.Fatalf("degenerate box: %+v", s.Target)
		}
	}
}

func TestPositiveClipContainsCulvertPixels(t *testing.T) {
	cc := DefaultClipConfig()
	cc.Size = 64
	_, ds := buildTestDataset(t, cc)
	for _, s := range ds.Samples {
		if !s.Target.HasObject {
			continue
		}
		// The bright culvert signature must appear at the labeled center.
		cx := int(s.Target.CX * float32(cc.Size))
		cy := int(s.Target.CY * float32(cc.Size))
		if v := s.Image.At(BandR, cy, cx); v < 0.7 {
			t.Fatalf("no culvert signature at labeled center: red=%v", v)
		}
	}
}

func TestNegativeClipsHaveNoCrossing(t *testing.T) {
	cc := DefaultClipConfig()
	cc.Size = 64
	w, ds := buildTestDataset(t, cc)
	for _, s := range ds.Samples {
		if s.Target.HasObject {
			continue
		}
		for _, p := range w.Crossings {
			if p.R >= s.Origin.R && p.R < s.Origin.R+cc.Size &&
				p.C >= s.Origin.C && p.C < s.Origin.C+cc.Size {
				t.Fatalf("negative clip at %v contains crossing %v", s.Origin, p)
			}
		}
	}
}

func TestSplitRatioAndDisjoint(t *testing.T) {
	cc := DefaultClipConfig()
	cc.Size = 64
	_, ds := buildTestDataset(t, cc)
	train, test := ds.Split(0.8, 42)
	if len(train.Samples)+len(test.Samples) != len(ds.Samples) {
		t.Fatal("split lost samples")
	}
	wantTrain := int(0.8 * float64(len(ds.Samples)))
	if len(train.Samples) != wantTrain {
		t.Fatalf("train size %d, want %d", len(train.Samples), wantTrain)
	}
}

func TestBatchAssembly(t *testing.T) {
	cc := DefaultClipConfig()
	cc.Size = 64
	_, ds := buildTestDataset(t, cc)
	if len(ds.Samples) < 3 {
		t.Skip("dataset too small")
	}
	x, targets := ds.Batch(0, 3)
	if x.Dim(0) != 3 || x.Dim(1) != NumBands || x.Dim(2) != 64 || x.Dim(3) != 64 {
		t.Fatalf("batch shape %v", x.Shape())
	}
	if len(targets) != 3 {
		t.Fatalf("targets = %d", len(targets))
	}
	// First sample's first pixel must match.
	if x.At(0, 0, 0, 0) != ds.Samples[0].Image.At(0, 0, 0) {
		t.Fatal("batch content mismatch")
	}
}

// ClipInto fills a reused batch-of-one tensor with exactly the window
// Clip allocates, overwriting whatever the previous window left, and
// refuses a destination of the wrong volume or a window off the image.
func TestClipIntoMatchesClip(t *testing.T) {
	img := tensor.New(3, 9, 11)
	for i := range img.Data() {
		img.Data()[i] = float32(i)
	}
	dst := tensor.New(1, 3, 4, 4)
	for _, at := range [][2]int{{0, 0}, {5, 7}, {2, 3}} {
		ClipInto(dst, img, at[0], at[1], 4)
		want := Clip(img, at[0], at[1], 4)
		for i, v := range want.Data() {
			if dst.Data()[i] != v {
				t.Fatalf("window %v: element %d = %v, want %v", at, i, dst.Data()[i], v)
			}
		}
		if want.At(1, 2, 3) != img.At(1, at[0]+2, at[1]+3) {
			t.Fatalf("window %v: Clip does not read the image at its offset", at)
		}
	}
	for name, f := range map[string]func(){
		"wrong volume": func() { ClipInto(tensor.New(3, 4, 5), img, 0, 0, 4) },
		"off the edge": func() { ClipInto(dst, img, 6, 0, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestBatchInvalidRangePanics(t *testing.T) {
	cc := DefaultClipConfig()
	cc.Size = 64
	_, ds := buildTestDataset(t, cc)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ds.Batch(5, 2)
}

func TestShuffleDeterministic(t *testing.T) {
	cc := DefaultClipConfig()
	cc.Size = 64
	_, a := buildTestDataset(t, cc)
	_, b := buildTestDataset(t, cc)
	a.Shuffle(9)
	b.Shuffle(9)
	for i := range a.Samples {
		if a.Samples[i].Origin != b.Samples[i].Origin {
			t.Fatal("shuffle not deterministic")
		}
	}
}

func TestFBMRangeAndDeterminism(t *testing.T) {
	f := NewFBM(rand.New(rand.NewSource(5)), 4)
	g := NewFBM(rand.New(rand.NewSource(5)), 4)
	for i := 0; i < 500; i++ {
		x, y := float64(i%25)/25, float64(i/25)/20
		v := f.At(x, y)
		if v < 0 || v > 1 {
			t.Fatalf("FBM out of range: %v", v)
		}
		if v != g.At(x, y) {
			t.Fatal("FBM not deterministic")
		}
	}
}

// fbmRows must give FBM.At's bits at every sample: for every octave count
// the generator and renderer use and more, on coordinates that are random,
// non-monotone and repeated, that sit exactly on lattice points, and that
// run past 1 so the lattice wraps.
func TestFBMRowsMatchAt(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	check := func(f *FBM, xs []float64, y float64) {
		t.Helper()
		dst := make([]float64, len(xs)+3) // fill may be handed a longer scratch
		newFBMRows(f, xs).fill(dst, y)
		for c, x := range xs {
			if got, want := dst[c], f.At(x, y); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%d octaves, x=%v y=%v: row form %v (%#x), At %v (%#x)",
					f.octaves, x, y, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
	for octaves := 1; octaves <= 5; octaves++ {
		f := NewFBM(rng, octaves)
		for n := 1; n <= 70; n++ {
			xs := make([]float64, n)
			for c := range xs {
				switch rng.Intn(4) {
				case 0:
					xs[c] = float64(rng.Intn(256)) / 64 // on a lattice point of every octave, up to 4: wraps
				case 1:
					xs[c] = xs[rng.Intn(c+1)] // repeated
				default:
					xs[c] = rng.Float64() * 3
				}
			}
			check(f, xs, rng.Float64()*3)
			check(f, xs, float64(rng.Intn(256))/64)
		}
		// Every row of a non-square raster, at the three scalings in use.
		const rows, cols = 37, 53
		for _, scale := range []float64{1, 0.5, 3} {
			xs := make([]float64, cols)
			for c := range xs {
				xs[c] = float64(c) / cols * scale
			}
			for r := 0; r < rows; r++ {
				check(f, xs, float64(r)/rows*scale)
			}
		}
	}
}

func BenchmarkGenerateWatershed256(b *testing.B) {
	benchmarkGenerate(b, testConfig())
}

func BenchmarkRender256(b *testing.B) {
	benchmarkRender(b, testConfig())
}

// priorConfig is the watershed a sweep_prior job of the benchmark
// harness generates first (benchmark/load.go, priorSpec(21)); the golden
// digests pin it too.
func priorConfig() Config {
	cfg := DefaultConfig() // 512²
	cfg.Seed = 21
	cfg.RoadSpacing = 256
	cfg.StreamThreshold = 460.8
	return cfg
}

func BenchmarkGenerateWatershed512(b *testing.B) {
	benchmarkGenerate(b, priorConfig())
}

func BenchmarkRender512(b *testing.B) {
	benchmarkRender(b, priorConfig())
}

func BenchmarkBaseTerrain512(b *testing.B) {
	cfg := priorConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		baseTerrain(cfg, rand.New(rand.NewSource(cfg.Seed)))
	}
}

// The flood on the terrain Generate fills (prior), on the same terrain
// under its road embankments, where a third of the cells are raised, and
// on a flat raster, where the level queue is one heap. Here and not in
// internal/hydro, which cannot import the generator.
func BenchmarkFillDepressions512(b *testing.B) {
	w, err := Generate(priorConfig())
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		dem  *hydro.Grid
	}{
		{"prior", w.BaseDEM},
		{"embanked", w.DEM},
		{"flat", hydro.NewGrid(512, 512, 1)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				hydro.FillDepressions(bc.dem)
			}
		})
	}
}

func benchmarkGenerate(b *testing.B, cfg Config) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkRender(b *testing.B, cfg Config) {
	w, err := Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Render(w)
	}
}

// nearStream is the renderer's former riparian test, a scan of the
// (2·radius+1)² neighbourhood per pixel. Render now reads one hydro.Dilate
// of the stream mask, which internal/hydro tests against this same scan.
func nearStream(w *Watershed, r, c, radius int) bool {
	for dr := -radius; dr <= radius; dr++ {
		for dc := -radius; dc <= radius; dc++ {
			rr, cc := r+dr, c+dc
			if rr < 0 || rr >= w.Cfg.Rows || cc < 0 || cc >= w.Cfg.Cols {
				continue
			}
			if w.StreamMask[rr*w.Cfg.Cols+cc] {
				return true
			}
		}
	}
	return false
}

// allocsAndBytes reports what one call of f allocates: the count from
// testing.AllocsPerRun, the bytes from the growth of TotalAlloc.
func allocsAndBytes(f func()) (allocs float64, bytes uint64) {
	allocs = testing.AllocsPerRun(3, f)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return allocs, after.TotalAlloc - before.TotalAlloc
}

// The generator and the renderer allocate their outputs and a few working
// rasters, not an object per cell or per sample (a 512² Generate used to
// make 1,049,039 allocations for 40.4 MB, a Render 1,157,127 for 33.5 MB).
// The budgets sit about half a megabyte above what the two allocate today
// (10.9 and 5.1 MB): one more working array per cell does not fit
// Generate's — an int32 link per cell in the flood's queue was tried and
// showed as +7.6% peak RSS of the serving process. Run by
// `make check-allocs`.
func TestRasterPreparationAllocBudget(t *testing.T) {
	cfg := DefaultConfig() // 512²
	var w *Watershed
	allocs, bytes := allocsAndBytes(func() {
		var err error
		if w, err = Generate(cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Generate 512²: %.0f allocs, %.1f MB", allocs, float64(bytes)/1e6)
	if allocs > 200 || bytes > 11.5e6 {
		t.Errorf("Generate 512² allocates %.0f objects, %.1f MB; budget 200 objects, 11.5 MB", allocs, float64(bytes)/1e6)
	}
	allocs, bytes = allocsAndBytes(func() { Render(w) })
	t.Logf("Render 512²: %.0f allocs, %.1f MB", allocs, float64(bytes)/1e6)
	if allocs > 100 || bytes > 5.5e6 {
		t.Errorf("Render 512² allocates %.0f objects, %.1f MB; budget 100 objects, 5.5 MB", allocs, float64(bytes)/1e6)
	}
}
