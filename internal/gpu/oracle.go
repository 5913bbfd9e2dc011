package gpu

import "drainnet/internal/graph"

// CostOracle prices one stage — a set of operator groups that execute
// concurrently, each group a sequential chain — at a batch size, in
// nanoseconds of end-to-end time. It is the pricing interface the IOS
// dynamic program searches against; internal/ios.SimOracle implements
// it by replaying stages on the simulated GPU in this package.
type CostOracle interface {
	StageCost(groups [][]*graph.Node, batch int) float64
}
