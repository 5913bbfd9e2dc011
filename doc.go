// Package drainnet is a pure-Go reproduction of "Accuracy-Constrained
// Efficiency Optimization and GPU Profiling of CNN Inference for Detecting
// Drainage Crossing Locations" (SC-W 2023, DOI 10.1145/3624062.3624260).
//
// The library spans the paper's full pipeline:
//
//   - Synthetic watershed and 4-band orthophoto generation with
//     ground-truth drainage crossings (the stand-in for the paper's NAIP
//     dataset): GenerateWatershed, RenderOrthophoto, BuildDataset.
//   - DEM hydrology — D8 flow routing, digital-dam diagnosis, culvert
//     breaching: FlowDirections, ConnectivityScore, BreachAll.
//   - An SPP-Net model family with a from-scratch tensor/autograd engine:
//     OriginalSPPNet …SPPNet3, BuildModel, Fit, EvaluateDetector.
//   - Neural architecture search with the paper's §4.2 search space and
//     the accuracy-constrained selection of §5.4: DefaultSearchSpace,
//     Search, SimEvaluator.
//   - The IOS inter-operator scheduler and a discrete-event GPU simulator
//     calibrated to the RTX A5500: BuildGraph, OptimizeSchedule,
//     MeasureLatency.
//   - An Nsight-style profiler over the simulator: ProfileInference.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record of every table and figure.
package drainnet
