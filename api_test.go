package drainnet

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
)

// TestPublicAPIEndToEnd drives the whole pipeline through the exported
// façade only: generate → render → clip → train → evaluate → graph →
// schedule → measure → profile → breach.
func TestPublicAPIEndToEnd(t *testing.T) {
	// Watershed and data.
	wc := DefaultWatershedConfig()
	wc.Rows, wc.Cols = 256, 256
	wc.RoadSpacing = 72
	wc.StreamThreshold = 120
	w, err := GenerateWatershed(wc)
	if err != nil {
		t.Fatal(err)
	}
	img := RenderOrthophoto(w)
	cc := DefaultClipConfig()
	cc.Size = 40
	cc.JitterFrac = 0.08
	cc.ClipsPerCrossing = 2
	ds, err := BuildDataset(w, img, cc)
	if err != nil {
		t.Fatal(err)
	}
	trainDS, testDS := ds.SplitByCrossing(0.8, 1)

	// Model and quick training.
	cfg := OriginalSPPNet().Scaled(16).WithInput(4, 40)
	net, err := BuildModel(cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	opt := PaperTrainOptions()
	opt.Epochs = 3
	opt.BatchSize = 10
	opt.BoxWeight = 5
	if _, err := Fit(net, trainDS, opt); err != nil {
		t.Fatal(err)
	}
	ev := EvaluateDetector(net, testDS, 0.3)
	if ev.Positives == 0 {
		t.Fatal("no positives in test set")
	}

	// Detections decode.
	x, _ := testDS.Batch(0, 2)
	dets := Detect(net, x)
	if len(dets) != 2 {
		t.Fatalf("detections = %d", len(dets))
	}

	// Inference efficiency on the simulated GPU.
	g, err := BuildGraph(SPPNet2())
	if err != nil {
		t.Fatal(err)
	}
	dev := RTXA5500()
	seq := MeasureLatency(g, SequentialSchedule(g), dev, 1)
	sched, err := OptimizeSchedule(g, dev, 1)
	if err != nil {
		t.Fatal(err)
	}
	optRes := MeasureLatency(g, sched, dev, 1)
	if optRes.LatencyNs >= seq.LatencyNs {
		t.Fatal("optimized schedule must beat sequential")
	}

	// Profiling.
	p := ProfileInference(dev, g, sched, 4)
	if p.Kernels.TotalNs <= 0 || p.API.TotalNs <= 0 {
		t.Fatal("empty profile")
	}

	// Hydrologic repair with the true crossings.
	before := ConnectivityScore(w.DEM, wc.StreamThreshold)
	repaired := w.DEM.Clone()
	BreachAll(repaired, w.Crossings, 4)
	after := ConnectivityScore(repaired, wc.StreamThreshold)
	if after <= before {
		t.Fatalf("breaching must improve connectivity: %v → %v", before, after)
	}
}

func TestPublicAPINotationRoundTrip(t *testing.T) {
	cfg, err := ParseModel("custom", "C64,3,1-P2,2-C128,3,1-P2,2-C256,3,1-P2,2-SPP5,2,1-F4096")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Notation() != SPPNet2().Notation() {
		t.Fatalf("parsed %q", cfg.Notation())
	}
}

func TestPublicAPINASSelection(t *testing.T) {
	space := DefaultSearchSpace()
	trainer := CandidateTrainerFunc(func(cfg ModelConfig) (*Network, float64, error) {
		// Proxy accuracy: favors the paper's trend (deeper SPP, wider FC).
		acc := 0.93
		if cfg.SPPLevels[0] >= 5 {
			acc += 0.02
		}
		if cfg.FCWidth >= 2048 {
			acc += 0.01
		}
		return nil, acc, nil
	})
	ev := &SimEvaluator{Trainer: trainer, Threshold: 0.94, WidthScale: 16, InSize: 40}
	res, err := Search(space, ev, SearchOptions{Trials: 25, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != 25 {
		t.Fatalf("%d trials, want 25", len(res.Trials))
	}
	best := res.Winner()
	if best == nil {
		t.Fatal("no selection")
	}
	if best.Accuracy <= 0.94 {
		t.Fatal("selection violated the accuracy constraint")
	}
}

func TestPublicAPIMeasuredNAS(t *testing.T) {
	space := DefaultJointSearchSpace()
	if space.JointSize() != space.Size()*4 {
		t.Fatalf("joint size %d, want %d", space.JointSize(), space.Size()*4)
	}
	// A stub candidate evaluator exercises Search through the public
	// surface; the real MeasuredEvaluator is covered in-package.
	eval := func(c SearchCandidate) TrialResult {
		r := TrialResult{Candidate: c, Key: c.Key(), Accuracy: 0.95, Qualified: true}
		r.LatencyBNNs = float64(c.Arch.FCWidth)
		return r
	}
	res, err := Search(space, CandidateEvaluatorFunc(eval), SearchOptions{Strategy: "random", Trials: 8, Seed: 4, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	w := res.Winner()
	if w == nil || len(res.Ranked()) == 0 {
		t.Fatal("measured search produced no winner")
	}

	// Winner persistence round-trips through the public API.
	arch := w.Candidate.Arch.Scaled(16).WithInput(4, 40)
	net, err := BuildModel(arch, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := SaveNASWinner(dir, *w, arch, net, 0.9, 16); err != nil {
		t.Fatal(err)
	}
	plan, err := LoadNASWinnerPlan(dir + "/plan.json")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Arch.Name != arch.Name || plan.Candidate.Key() != w.Key {
		t.Fatalf("plan round-trip mangled: %+v", plan)
	}
}

func TestPublicAPIExtensions(t *testing.T) {
	// Augmentation + dataset persistence.
	wc := DefaultWatershedConfig()
	wc.Rows, wc.Cols = 256, 256
	wc.RoadSpacing = 96
	wc.StreamThreshold = 120
	w, err := GenerateWatershed(wc)
	if err != nil {
		t.Fatal(err)
	}
	cc := DefaultClipConfig()
	cc.Size = 40
	ds, err := BuildDataset(w, RenderOrthophoto(w), cc)
	if err != nil {
		t.Fatal(err)
	}
	aug := Augment(ds, 2, 1)
	if len(aug.Samples) != 3*len(ds.Samples) {
		t.Fatalf("augment size %d", len(aug.Samples))
	}
	path := t.TempDir() + "/ds.gob"
	if err := SaveDataset(path, ds); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Samples) != len(ds.Samples) {
		t.Fatal("dataset round trip lost samples")
	}

	// Evolutionary NAS.
	eval := func(c SearchCandidate) TrialResult { return TrialResult{Candidate: c, Key: c.Key(), Accuracy: 0.9} }
	if res, err := Search(DefaultSearchSpace(), CandidateEvaluatorFunc(eval), SearchOptions{Strategy: "evolution", Trials: 32, Seed: 1}); err != nil || len(res.Trials) == 0 {
		t.Fatalf("no evolution trials: %v", err)
	}

	// Multi-GPU extension.
	g, err := BuildGraph(SPPNet2())
	if err != nil {
		t.Fatal(err)
	}
	ms, err := OptimizeMultiGPU(g, DefaultMultiGPU(2), 8)
	if err != nil {
		t.Fatal(err)
	}
	if ms.MakespanNs <= 0 {
		t.Fatal("empty multi-GPU plan")
	}

	// Model persistence.
	cfg := OriginalSPPNet().Scaled(16).WithInput(4, 40)
	net, err := BuildModel(cfg, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	mp := t.TempDir() + "/m.ckpt"
	if err := SaveModel(mp, net); err != nil {
		t.Fatal(err)
	}
	if err := LoadModel(mp, net); err != nil {
		t.Fatal(err)
	}
}

// TestPublicServingAPI drives the exported serving surface: a replica
// pool submitted to directly, and the /v1 HTTP server around it.
func TestPublicServingAPI(t *testing.T) {
	cfg := OriginalSPPNet().Scaled(16).WithInput(4, 40)
	net, err := BuildModel(cfg, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewReplicaPool(cfg, net, PoolOptions{Replicas: 2, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	x := NewTensor(1, 4, 40, 40)
	det, err := pool.Submit(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	if det.Score < 0 || det.Score > 1 {
		t.Fatalf("score %v", det.Score)
	}
	var st PoolStats = pool.Stats()
	if st.Served != 1 || st.Replicas != 2 {
		t.Fatalf("stats %+v", st)
	}

	net2, err := BuildModel(cfg, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewDetectorServer(cfg, net2, 0.5, ServeOptions{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Handler() == nil {
		t.Fatal("nil handler")
	}
}

// TestPublicSweepAPI runs a small checkpointed sweep job end to end
// through the exported façade: pool → manager → job → results → GeoJSON.
func TestPublicSweepAPI(t *testing.T) {
	cfg := OriginalSPPNet().Scaled(16).WithInput(4, 40)
	net, err := BuildModel(cfg, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewReplicaPool(cfg, net, PoolOptions{Replicas: 1, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := NewSweepManager(SweepManagerOptions{
		Submit:        pool,
		Bands:         4,
		DefaultWindow: 40,
		Dir:           t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { mgr.Close(); pool.Close() }()

	job, err := mgr.Start(SweepSpec{
		Rows: 96, Cols: 96, Seed: 5,
		Stride: 24, MinScore: 0.05,
		RoadSpacing: 48, StreamThreshold: 48,
	})
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	var st SweepStatus = job.Status()
	if st.State != "done" || st.Windows == 0 || st.Inferred != st.Candidates {
		t.Fatalf("sweep status %+v", st)
	}
	var sum SweepScenarioSummary = st.PerScenario[0]
	if sum.Scenario != "baseline" || sum.Windows != st.Windows {
		t.Fatalf("scenario summary %+v", sum)
	}
	hits, next := job.Results(0, 1000)
	if next != -1 || len(hits) != st.Hits {
		t.Fatalf("results %d (next %d), status says %d", len(hits), next, st.Hits)
	}

	var pts []GeoPoint
	for _, h := range hits {
		var sh SweepHit = h
		pts = append(pts, GeoPoint{Row: sh.Row, Col: sh.Col, Score: sh.Score, Scenario: sh.Scenario})
	}
	var buf bytes.Buffer
	if err := WriteCrossingsGeoJSON(&buf, pts); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"FeatureCollection"`)) {
		t.Fatalf("GeoJSON output %s", buf.String())
	}
}

func TestPublicQuantAPI(t *testing.T) {
	if _, err := ParsePrecision("int8"); err != nil {
		t.Fatal(err)
	}
	cfg := OriginalSPPNet().Scaled(16).WithInput(4, 40)
	net, err := BuildModel(cfg, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	ds := &Dataset{ClipSize: 40}
	for i := 0; i < 16; i++ {
		img := NewTensor(4, 40, 40)
		for j := range img.Data() {
			img.Data()[j] = rng.Float32()
		}
		s := Sample{Image: img}
		if i%2 == 0 {
			s.Target = DetectionTarget{HasObject: true, CX: 0.5, CY: 0.5, W: 0.2, H: 0.2}
		}
		ds.Samples = append(ds.Samples, s)
	}
	dec, err := QuantizeGated(net, ds, QuantOptions{MaxAPDrop: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Enabled || dec.Net == nil {
		t.Fatalf("gate with epsilon 1 should enable int8: %+v", dec)
	}
	// A quantized network serves through the same pool API.
	pool, err := NewReplicaPool(cfg, dec.Net, PoolOptions{Replicas: 1, MaxBatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if _, err := pool.Submit(context.Background(), NewTensor(1, 4, 40, 40)); err != nil {
		t.Fatal(err)
	}
	if got := pool.Stats().Precision; got != string(PrecisionInt8) {
		t.Fatalf("pool precision = %q, want int8", got)
	}
}
