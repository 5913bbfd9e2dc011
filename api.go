package drainnet

import (
	"io"
	"math/rand"

	"drainnet/internal/baseline"
	"drainnet/internal/cluster"
	"drainnet/internal/experiments"
	"drainnet/internal/export"
	"drainnet/internal/gpu"
	"drainnet/internal/graph"
	"drainnet/internal/hydro"
	"drainnet/internal/ios"
	"drainnet/internal/metrics"
	"drainnet/internal/model"
	"drainnet/internal/nas"
	"drainnet/internal/nn"
	"drainnet/internal/profiler"
	"drainnet/internal/serve"
	"drainnet/internal/serve/batcher"
	"drainnet/internal/sweep"
	"drainnet/internal/telemetry"
	"drainnet/internal/tensor"
	"drainnet/internal/terrain"
	"drainnet/internal/train"
)

// ---- Tensors and networks ----

// Tensor is a dense float32 tensor (row-major), the data type flowing
// through every model.
type Tensor = tensor.Tensor

// NewTensor allocates a zero-filled tensor with the given shape.
func NewTensor(shape ...int) *Tensor { return tensor.New(shape...) }

// Network is a trainable sequential CNN.
type Network = nn.Sequential

// DetectionTarget is per-sample supervision: objectness plus a normalized
// center-size box.
type DetectionTarget = nn.DetectionTarget

// ---- Model family (paper Table 1) ----

// ModelConfig describes one SPP-Net architecture; it round-trips through
// the paper's layer notation (see ParseModel and ModelConfig.Notation).
type ModelConfig = model.Config

// OriginalSPPNet is the paper's baseline architecture
// (C64,3,1-P2,2-C128,3,1-P2,2-C256,3,1-P2,2-SPP4,2,1-F1024).
func OriginalSPPNet() ModelConfig { return model.OriginalSPPNet() }

// SPPNet1 is NAS candidate #1 (5×5 first conv).
func SPPNet1() ModelConfig { return model.SPPNet1() }

// SPPNet2 is NAS candidate #2 (SPP 5,2,1 + F4096) — the paper's selected
// final model.
func SPPNet2() ModelConfig { return model.SPPNet2() }

// SPPNet3 is NAS candidate #3 (SPP 5,2,1 + F2048).
func SPPNet3() ModelConfig { return model.SPPNet3() }

// ModelCandidates returns all four Table 1 architectures.
func ModelCandidates() []ModelConfig { return model.Candidates() }

// ParseModel parses the paper's layer notation, e.g.
// "C64,3,1-P2,2-C128,3,1-P2,2-C256,3,1-P2,2-SPP4,2,1-F1024".
func ParseModel(name, notation string) (ModelConfig, error) {
	return model.ParseNotation(name, notation)
}

// BuildModel constructs the trainable network for a configuration.
func BuildModel(cfg ModelConfig, rng *rand.Rand) (*Network, error) { return cfg.Build(rng) }

// Detect runs a trained network on a batch and decodes detections.
func Detect(net *Network, x *Tensor) []Detection { return model.Detect(net, x) }

// ScanConfig controls sliding-window raster scanning.
type ScanConfig = model.ScanConfig

// ScanHit is one confident, NMS-surviving detection in raster coordinates.
type ScanHit = model.ScanHit

// DefaultScanConfig returns a dense scan at a high confidence cut.
func DefaultScanConfig(window int) ScanConfig { return model.DefaultScanConfig(window) }

// Scan slides a trained detector over a full raster and returns merged
// drainage-crossing locations (the survey operation that feeds DEM
// breaching).
func Scan(net *Network, img *Tensor, cfg ScanConfig) ([]ScanHit, error) {
	return model.Scan(net, img, cfg)
}

// MatchHits scores detections against ground-truth crossings within a
// tolerance radius, returning recall and precision.
func MatchHits(hits []ScanHit, truth []GridPoint, radius int) (recall, precision float64) {
	return model.MatchHits(hits, truth, radius)
}

// ---- Synthetic watershed and dataset ----

// WatershedConfig controls watershed synthesis.
type WatershedConfig = terrain.Config

// Watershed is a synthesized study area: DEM, roads, streams, wetlands,
// and ground-truth drainage crossings.
type Watershed = terrain.Watershed

// DefaultWatershedConfig matches the study area's character at 1 m
// resolution.
func DefaultWatershedConfig() WatershedConfig { return terrain.DefaultConfig() }

// GenerateWatershed synthesizes a watershed.
func GenerateWatershed(cfg WatershedConfig) (*Watershed, error) { return terrain.Generate(cfg) }

// RenderOrthophoto renders the 4-band (R,G,B,NIR) image of a watershed.
func RenderOrthophoto(w *Watershed) *Tensor { return terrain.Render(w) }

// ClipConfig controls how labeled samples are clipped from the image.
type ClipConfig = terrain.ClipConfig

// DefaultClipConfig matches the paper's §3.2 preprocessing: 100×100
// samples with the crossing near the center.
func DefaultClipConfig() ClipConfig { return terrain.DefaultClipConfig() }

// Dataset is a set of labeled clips with deterministic splitting.
type Dataset = terrain.Dataset

// Sample is one labeled clip.
type Sample = terrain.Sample

// BuildDataset clips positive and negative samples from a rendered
// watershed.
func BuildDataset(w *Watershed, img *Tensor, cc ClipConfig) (*Dataset, error) {
	return terrain.BuildDataset(w, img, cc)
}

// ClipImage extracts a size×size window from a C×H×W image at (r0, c0).
func ClipImage(img *Tensor, r0, c0, size int) *Tensor {
	return terrain.Clip(img, r0, c0, size)
}

// Augment extends a dataset with random square symmetries (flips and
// rotations), transforming box targets to match.
func Augment(ds *Dataset, extraPerSample int, seed int64) *Dataset {
	return terrain.Augment(ds, extraPerSample, seed)
}

// SaveDataset / LoadDataset cache expensive dataset generation to disk.
func SaveDataset(path string, ds *Dataset) error { return terrain.SaveDatasetFile(path, ds) }

// LoadDataset reads a dataset written by SaveDataset.
func LoadDataset(path string) (*Dataset, error) { return terrain.LoadDatasetFile(path) }

// ---- Hydrology ----

// Grid is a raster of float64 values (elevations, accumulations).
type Grid = hydro.Grid

// GridPoint is a raster coordinate.
type GridPoint = hydro.Point

// FlowDirections computes D8 steepest-descent directions.
func FlowDirections(dem *Grid) *hydro.FlowDir { return hydro.D8FlowDirections(dem) }

// FlowAccumulation computes D8 flow accumulation.
func FlowAccumulation(dem *Grid, dirs *hydro.FlowDir) *Grid {
	return hydro.FlowAccumulation(dem, dirs)
}

// FillDepressions removes interior sinks (priority-flood).
func FillDepressions(dem *Grid) *Grid { return hydro.FillDepressions(dem) }

// FillDepressionsLimited fills only shallow depressions (≤ maxDepth of
// fill), so dam-impounded ponds persist for diagnosis.
func FillDepressionsLimited(dem *Grid, maxDepth float64) *Grid {
	return hydro.FillDepressionsLimited(dem, maxDepth)
}

// ConnectivityScore is the fraction of stream cells whose flow path
// reaches the raster boundary; digital dams lower it.
func ConnectivityScore(dem *Grid, streamThreshold float64) float64 {
	return hydro.ConnectivityScore(dem, streamThreshold)
}

// BreachAll carves drainage channels through embankments at the given
// crossing locations.
func BreachAll(dem *Grid, points []GridPoint, radius int) { hydro.BreachAll(dem, points, radius) }

// ---- Training and evaluation ----

// TrainOptions configures a training run.
type TrainOptions = train.Options

// PaperTrainOptions returns the paper's §6.1 protocol (SGD lr 0.005,
// weight decay 5e-4, momentum 0.9, batch 20).
func PaperTrainOptions() TrainOptions { return train.PaperOptions() }

// Fit trains a network on a dataset.
func Fit(net *Network, ds *Dataset, opt TrainOptions) ([]train.EpochStats, error) {
	return train.Fit(net, ds, opt)
}

// EvaluateDetector scores a trained detector with AP at an IoU threshold
// (the paper's Equation 1).
func EvaluateDetector(net *Network, ds *Dataset, iouThresh float64) Evaluation {
	return train.Evaluate(net, ds, iouThresh)
}

// Detection is one model output: confidence and box.
type Detection = metrics.Detection

// Evaluation is an AP/PR scoring result.
type Evaluation = metrics.Evaluation

// IoU returns intersection-over-union of two normalized boxes.
func IoU(a, b metrics.Box) float64 { return metrics.IoU(a, b) }

// ---- NAS (paper §4, §5.4) ----

// SearchSpace is the Retiarii-style model space.
type SearchSpace = nas.Space

// DefaultSearchSpace returns the paper's §4.2 space: conv1 kernel
// {1,3,5,7,9}, first SPP level {1..5}, FC width {128..8192}.
func DefaultSearchSpace() SearchSpace { return nas.DefaultSpace() }

// SearchCandidate is one point of the joint search space: architecture ×
// serving precision × kernel mode.
type SearchCandidate = nas.CandidateConfig

// DefaultJointSearchSpace returns the §4.2 architecture space extended
// with the serving dimensions: precision {fp32, int8} and kernel mode
// {im2col, tuned}.
func DefaultJointSearchSpace() SearchSpace { return nas.DefaultJointSpace() }

// SimEvaluator is the paper's Fig 5 oracle (§5.4): trained accuracy
// a(n), the constraint a(n) > A, and e(n) the IOS-optimized latency of
// the unscaled architecture on the simulated RTX A5500 at batch 1.
type SimEvaluator = experiments.SimEvaluator

// MeasuredEvaluator scores joint candidates with real trained accuracy
// and the measured steady-state latency of each candidate's compiled
// executor on this machine (after accuracy-gated quantization and
// kernel autotuning). Safe for concurrent use by Search workers.
type MeasuredEvaluator = nas.MeasuredEvaluator

// CandidateTrainer produces a trained network and its held-out accuracy
// for one scaled architecture.
type CandidateTrainer = nas.Trainer

// CandidateTrainerFunc adapts a plain function to a CandidateTrainer.
type CandidateTrainerFunc = nas.TrainerFunc

// SearchOptions configures a search (strategy, trial budget, seed,
// parallel workers).
type SearchOptions = nas.SearchOptions

// TrialResult is one scored joint candidate.
type TrialResult = nas.TrialResult

// CandidateEvaluatorFunc adapts a plain function to a search candidate
// evaluator.
type CandidateEvaluatorFunc = nas.CandidateEvaluatorFunc

// SearchResult is a search's full history with deterministic ranking
// (Ranked, Winner, Render).
type SearchResult = nas.SearchResult

// Search runs the NAS (random, grid or evolution strategy) with either
// oracle — a SimEvaluator or a MeasuredEvaluator: candidates evaluate
// across opts.Parallel workers sharing one evaluator; revisited
// candidates are never evaluated twice, and a warm cost cache reproduces
// a measured ranking bit-for-bit.
func Search(space SearchSpace, eval nas.CandidateEvaluator, opts SearchOptions) (*SearchResult, error) {
	return nas.Search(space, eval, opts)
}

// NASWinnerPlan is the persisted outcome of a measured search, loadable
// by drainnet-serve -nas-plan.
type NASWinnerPlan = nas.WinnerPlan

// SaveNASWinner persists a search winner (plan.json + winner.ckpt) into dir.
func SaveNASWinner(dir string, t TrialResult, arch ModelConfig, net *Network, threshold float64, maxBatch int) (*NASWinnerPlan, error) {
	return nas.SaveWinner(dir, t, arch, net, threshold, maxBatch)
}

// LoadNASWinnerPlan reads a plan written by SaveNASWinner.
func LoadNASWinnerPlan(path string) (*NASWinnerPlan, error) { return nas.LoadWinnerPlan(path) }

// ---- Inference graphs, IOS, GPU simulation (paper §5, §6.3–6.4) ----

// Graph is the operator-DAG inference IR.
type Graph = graph.Graph

// BuildGraph lowers a model configuration to its inference graph.
func BuildGraph(cfg ModelConfig) (*Graph, error) { return cfg.BuildGraph() }

// Device describes a simulated GPU.
type Device = gpu.DeviceConfig

// RTXA5500 returns the paper's GPU, simulated (10240 CUDA cores, 24 GB).
func RTXA5500() Device { return gpu.RTXA5500() }

// Schedule is an execution plan: stages of concurrent groups.
type Schedule = ios.Schedule

// SequentialSchedule returns the framework-eager baseline schedule.
func SequentialSchedule(g *Graph) *Schedule { return ios.SequentialSchedule(g) }

// GreedySchedule returns the ASAP-levels baseline schedule.
func GreedySchedule(g *Graph) *Schedule { return ios.GreedySchedule(g) }

// OptimizeSchedule runs the IOS dynamic program against the device's cost
// model at the given batch size.
func OptimizeSchedule(g *Graph, dev Device, batch int) (*Schedule, error) {
	return ios.Optimize(g, ios.NewSimOracle(dev), batch)
}

// CostCache memoizes wall-clock kernel and NAS candidate measurements
// across processes.
type CostCache = model.CostCache

// LoadCostCache reads a saved measurement cost cache (empty when missing).
func LoadCostCache(path string) (*CostCache, error) { return model.LoadCostCache(path) }

// LatencyResult summarizes one measured inference.
type LatencyResult = ios.RunResult

// MeasureLatency executes a schedule on a warm simulated device and
// reports end-to-end latency and per-image efficiency.
func MeasureLatency(g *Graph, sched *Schedule, dev Device, batch int) LatencyResult {
	return ios.NewRuntime(dev).Measure(g, sched, batch)
}

// ---- Profiling (paper §7) ----

// Profile is a combined nsys-style report: memory operations (Fig 7),
// CUDA API shares (Fig 8), kernel classes (Table 3).
type Profile = profiler.Profile

// ProfileInference profiles one cold-process inference.
func ProfileInference(dev Device, g *Graph, sched *Schedule, batch int) Profile {
	return profiler.Run(dev, g, sched, batch)
}

// ---- Multi-GPU extension (paper §4.1 future work) ----

// MultiGPUConfig describes a simulated multi-GPU node.
type MultiGPUConfig = ios.MultiGPUConfig

// MultiSchedule is a placed, timed multi-GPU execution plan.
type MultiSchedule = ios.MultiSchedule

// DefaultMultiGPU returns an n-GPU RTX A5500 node joined by NVLink.
func DefaultMultiGPU(n int) MultiGPUConfig { return ios.DefaultMultiGPU(n) }

// OptimizeMultiGPU places the graph's operators across a multi-GPU node
// with earliest-finish-time list scheduling (HIOS-style inter-GPU level).
func OptimizeMultiGPU(g *Graph, cfg MultiGPUConfig, batch int) (*MultiSchedule, error) {
	return ios.OptimizeMultiGPU(g, cfg, batch)
}

// ---- Quantized inference (accuracy-gated int8) ----

// Precision names a serving precision: PrecisionFP32, PrecisionInt8, or
// PrecisionAuto (try int8, fall back to fp32 on a gate failure).
type Precision = model.Precision

// Serving precisions accepted by ParsePrecision and ServeOptions.
const (
	PrecisionFP32 = model.PrecisionFP32
	PrecisionInt8 = model.PrecisionInt8
	PrecisionAuto = model.PrecisionAuto
)

// ParsePrecision parses "fp32", "int8" or "auto".
func ParsePrecision(s string) (Precision, error) { return model.ParsePrecision(s) }

// QuantOptions configures the quantization accuracy gate: its one
// setting is MaxAPDrop, the largest tolerated drop of int8 AP below
// fp32 AP on the held-out split, taken as given.
type QuantOptions = model.QuantOptions

// QuantDecision is the gate's verdict: the quantized network, both
// precisions' AP on the held-out split, and whether int8 cleared the
// epsilon (the paper's a(n) > A constraint applied to quantization).
type QuantDecision = model.QuantDecision

// QuantizeGated calibrates net on the dataset, quantizes it to int8
// (per-channel weights, affine activations, per-layer fp32 fallback for
// unsupported modules), and scores both precisions; Enabled reports
// whether the AP drop stayed within opts.MaxAPDrop.
func QuantizeGated(net *Network, ds *Dataset, opts QuantOptions) (*QuantDecision, error) {
	return model.QuantizeGated(net, ds, opts)
}

// ---- Serving (versioned /v1 HTTP API, batched multi-replica pool) ----

// ServingPlan is a compiled deployment: the network to serve plus the
// decision report of every pipeline step that ran. Set it as
// PoolOptions.Plan / ServeOptions.Plan.
type ServingPlan = model.Plan

// CompileOptions selects the serving pipeline steps.
type CompileOptions = model.CompileOptions

// Compile assembles net for serving — quantization gate → kernel
// autotuning → dynamic planning → weight packing, each only when opts
// asks — as drainnet-serve and the measured NAS loop do.
// calib yields the gates' held-out split, only if a gate needs it.
func Compile(cfg ModelConfig, net *Network, calib func() (*Dataset, error), opts CompileOptions) (*ServingPlan, error) {
	return model.Compile(cfg, net, calib, opts)
}

// ReplicaPool runs clips across independent network replicas (each owning
// its layer caches): an idle replica takes what is waiting at once, so
// requests coalesce into batches only while every replica is busy.
type ReplicaPool = batcher.Pool

// PoolOptions tunes the pool: replica count, max batch (the §6.4 batching
// knob), the backpressure bound on waiting requests, and the compiled
// ServingPlan to run (nil serves net as it stands).
type PoolOptions = batcher.Options

// PoolStats is a snapshot of serving statistics: queue depth, batch-size
// histogram, latency quantiles, per-replica load.
type PoolStats = batcher.Stats

// NewReplicaPool builds a pool of opts.Replicas replicas of net, which
// must have been built from cfg (and be opts.Plan.Served when a plan is
// set). Submit clips with ReplicaPool.Submit; drain with Close.
func NewReplicaPool(cfg ModelConfig, net *Network, opts PoolOptions) (*ReplicaPool, error) {
	return batcher.New(cfg, net, opts)
}

// DetectorServer serves a trained detector over the /v1 HTTP API, backed
// by a ReplicaPool.
type DetectorServer = serve.Server

// ServeOptions configures the server's pool and per-request timeout.
type ServeOptions = serve.Options

// NewDetectorServer creates an HTTP detection server; threshold is the
// objectness confidence cut for HasObject.
func NewDetectorServer(cfg ModelConfig, net *Network, threshold float64, opts ServeOptions) (*DetectorServer, error) {
	return serve.NewWithOptions(cfg, net, threshold, opts)
}

// Hit is the /v1 wire schema for one detection, shared by /v1/detect,
// /v1/detect/batch, and /v1/sweep/{id}/results: a score plus either a
// clip-relative Box (detect) or a raster Point (sweep results).
type Hit = serve.Hit

// RasterPoint is a raster coordinate in a Hit.
type RasterPoint = serve.RasterPoint

// ---- Watershed sweep jobs (async /v1/sweep) ----

// SweepSpec describes a watershed-scale sweep job: raster size and seed,
// sliding-window geometry, the candidate prior, scenario list, and
// checkpoint cadence. Zero fields take model-derived defaults.
type SweepSpec = sweep.Spec

// SweepStatus is a job snapshot: state, phase, per-counter progress,
// skip rate, clips/sec throughput, and per-scenario accuracy summaries.
type SweepStatus = sweep.Status

// SweepScenarioSummary scores one completed scenario: windows swept,
// candidates inferred, and AP/recall/precision against the synthetic
// ground-truth crossings.
type SweepScenarioSummary = sweep.ScenarioSummary

// SweepHit is one merged crossing detection in raster coordinates.
type SweepHit = sweep.Hit

// SweepManager runs resumable sweep jobs over an inference backend; the
// HTTP server embeds one behind /v1/sweep, and drainnet-sweep drives one
// directly.
type SweepManager = sweep.Manager

// SweepManagerOptions wires a manager to a pool: the Submit backend,
// model input geometry, checkpoint directory, and telemetry.
type SweepManagerOptions = sweep.ManagerOptions

// SweepJob is one running or finished sweep job.
type SweepJob = sweep.Job

// NewSweepManager builds a sweep-job manager. With a checkpoint
// directory set, interrupted jobs resume bit-identically via
// SweepManager.Resume.
func NewSweepManager(opts SweepManagerOptions) (*SweepManager, error) {
	return sweep.NewManager(opts)
}

// GeoPoint is one crossing feature for GeoJSON export.
type GeoPoint = export.PointFeature

// WriteCrossingsGeoJSON writes detections as a GeoJSON FeatureCollection
// of Point features (coordinates are [col, row]).
func WriteCrossingsGeoJSON(w io.Writer, points []GeoPoint) error {
	return export.WriteGeoJSON(w, points)
}

// ---- Cluster-mode serving (router over N worker processes) ----

// ClusterRouter fronts a supervised fleet of drainnet-serve worker
// processes: least-loaded routing with transparent retry, priority-class
// admission control (interactive over bulk), crash respawn with backoff,
// SIGTERM drain propagation, and an optional adaptive batching
// controller retuning workers from live latency quantiles.
type ClusterRouter = cluster.Router

// RouterConfig configures a ClusterRouter: worker count, spawn function,
// admission policy, adaptive batching, retry and drain budgets.
type RouterConfig = cluster.Config

// WorkerState is one supervised worker slot's lifecycle position:
// starting, ready, draining, or down.
type WorkerState = cluster.WorkerState

// WorkerStatus is one worker's status snapshot (GET /v1/cluster).
type WorkerStatus = cluster.WorkerStatus

// AdmissionPolicy bounds each priority class's concurrent admitted
// requests; the bulk budget shrinks as interactive occupancy rises
// (AdmissionPolicy.EffectiveBulkLimit), so overload sheds bulk first.
type AdmissionPolicy = cluster.AdmissionPolicy

// AutoBatchConfig configures the adaptive batching controller; see
// cluster.NextTuning for the control law.
type AutoBatchConfig = cluster.AutoBatchConfig

// NewClusterRouter starts the router: spawns the fleet and begins
// supervision. Serve ClusterRouter.Handler over HTTP; drain with
// ClusterRouter.BeginDrain then ClusterRouter.Close.
func NewClusterRouter(cfg RouterConfig) (*ClusterRouter, error) { return cluster.New(cfg) }

// ExecWorkerStart returns a RouterConfig.Start that spawns bin (a
// drainnet-serve binary) with baseArgs plus per-slot -addr/-worker-id.
func ExecWorkerStart(bin string, baseArgs []string) cluster.StartFunc {
	return cluster.ExecStart(bin, baseArgs)
}

// ---- Telemetry (serving observability) ----

// Telemetry is the serving observability subsystem: a lock-free metrics
// registry, a span pipeline that assembles per-request timelines from
// typed events, and 1-in-N Chrome-trace sampling. Pass one to
// ServeOptions.Telemetry or PoolOptions.Telemetry; scrape it at
// /v1/metrics.
type Telemetry = telemetry.Telemetry

// TelemetryOptions configures the span pipeline: ring size, trace
// sampling rate, trace sink, and an optional shared registry.
type TelemetryOptions = telemetry.Options

// MetricsRegistry holds named counters, gauges, and histograms with
// Prometheus text and JSON exposition.
type MetricsRegistry = telemetry.Registry

// NewTelemetry starts a telemetry instance with a running span pipeline.
// Close it after the pool/server that uses it.
func NewTelemetry(opts TelemetryOptions) *Telemetry { return telemetry.New(opts) }

// TraceFileSink returns a trace sink writing each sampled request trace
// to dir/req-<id>.trace.json, for TelemetryOptions.TraceSink.
func TraceFileSink(dir string) func(*telemetry.Span, []byte) { return telemetry.FileSink(dir) }

// ---- Model persistence ----

// SaveModel writes a trained network's parameters to path.
func SaveModel(path string, net *Network) error { return train.SaveFile(path, net) }

// LoadModel restores parameters saved by SaveModel into a network of the
// same architecture.
func LoadModel(path string, net *Network) error { return train.LoadFile(path, net) }

// ---- Two-stage baseline (paper §8.1) ----

// BaselineDetector is the two-stage proposal+classify detector (Faster
// R-CNN stand-in).
type BaselineDetector = baseline.Detector

// NewBaselineDetector builds the two-stage baseline.
func NewBaselineDetector(rng *rand.Rand) (*BaselineDetector, error) {
	return baseline.New(rng, baseline.DefaultConfig())
}
