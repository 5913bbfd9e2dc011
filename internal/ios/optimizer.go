package ios

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"drainnet/internal/gpu"
	"drainnet/internal/graph"
)

// MaxDPBlockSize bounds the block size the exact DP will attempt; larger
// blocks fall back to the greedy per-level schedule. 3^16 subset pairs is
// the practical ceiling for interactive use.
const MaxDPBlockSize = 16

// CostOracle prices one stage (a set of concurrent groups) at a batch
// size, in nanoseconds of end-to-end time. It is an alias of the shared
// gpu.CostOracle interface, which the simulated oracle below implements.
type CostOracle = gpu.CostOracle

// SimOracle prices stages by replaying them on a scratch GPU simulator.
// Results are memoized: the DP re-prices identical group sets many times.
type SimOracle struct {
	Dev   gpu.DeviceConfig
	cache map[string]float64
}

// NewSimOracle creates a memoizing oracle for the device.
func NewSimOracle(dev gpu.DeviceConfig) *SimOracle {
	return &SimOracle{Dev: dev, cache: make(map[string]float64)}
}

// StageCost implements CostOracle.
func (o *SimOracle) StageCost(groups []Group, batch int) float64 {
	key := stageKey(groups, batch)
	if c, ok := o.cache[key]; ok {
		return c
	}
	sim := gpu.NewSim(o.Dev)
	sim.LoadLibrary()
	start := sim.NowNs()
	sim.RunStage(groups, batch)
	cost := sim.NowNs() - start
	o.cache[key] = cost
	return cost
}

func stageKey(groups []Group, batch int) string {
	parts := make([]string, len(groups))
	for i, g := range groups {
		ids := make([]string, len(g))
		for j, n := range g {
			ids[j] = fmt.Sprint(n.ID)
		}
		parts[i] = strings.Join(ids, ",")
	}
	sort.Strings(parts)
	return fmt.Sprintf("b%d|%s", batch, strings.Join(parts, ";"))
}

// Optimize runs the IOS dynamic program on every block of g and
// concatenates the per-block schedules, then merges adjacent single-group
// stages (which removes needless synchronization between linear chains).
func Optimize(g *graph.Graph, oracle CostOracle, batch int) (*Schedule, error) {
	blocks, err := graph.FindBlocks(g)
	if err != nil {
		return nil, err
	}
	var stages []Stage
	for _, b := range blocks {
		bs, err := optimizeBlock(b, oracle, batch)
		if err != nil {
			return nil, err
		}
		stages = append(stages, bs...)
	}
	stages = mergeLinearStages(stages)
	sched := &Schedule{Name: "ios", Stages: stages}
	if err := sched.Validate(g); err != nil {
		return nil, fmt.Errorf("ios: optimizer produced invalid schedule: %w", err)
	}
	return sched, nil
}

// optimizeBlock runs the stage-partition DP over one block's members.
func optimizeBlock(b *graph.Block, oracle CostOracle, batch int) ([]Stage, error) {
	members := b.Members
	n := len(members)
	if n == 0 {
		return nil, nil
	}
	if n == 1 {
		return []Stage{{Groups: []Group{{members[0]}}}}, nil
	}
	if n > MaxDPBlockSize {
		// Fall back to greedy levels within the block.
		return greedyBlockStages(b), nil
	}

	idx := make(map[int]int, n) // node ID -> bit index
	for i, m := range members {
		idx[m.ID] = i
	}
	// In-block dependency masks.
	depMask := make([]uint32, n)
	for i, m := range members {
		for _, in := range m.Inputs {
			if j, ok := idx[in.ID]; ok {
				depMask[i] |= 1 << j
			}
		}
	}

	full := uint32(1)<<n - 1
	memo := make(map[uint32]float64)
	choice := make(map[uint32]uint32)
	var dp func(done uint32) float64
	dp = func(done uint32) float64 {
		if done == full {
			return 0
		}
		if v, ok := memo[done]; ok {
			return v
		}
		remaining := full &^ done
		best := -1.0
		var bestT uint32
		// Enumerate non-empty submasks T of remaining as the next stage.
		for T := remaining; T != 0; T = (T - 1) & remaining {
			groups, ok := stageGroups(T, done, members, depMask)
			if !ok {
				continue
			}
			c := oracle.StageCost(groups, batch) + dp(done|T)
			if best < 0 || c < best {
				best = c
				bestT = T
			}
		}
		if best < 0 {
			// No valid next stage — cannot happen on a DAG, but guard anyway.
			best = 0
			bestT = remaining
		}
		memo[done] = best
		choice[done] = bestT
		return best
	}
	dp(0)

	var stages []Stage
	done := uint32(0)
	for done != full {
		T := choice[done]
		groups, ok := stageGroups(T, done, members, depMask)
		if !ok {
			return nil, fmt.Errorf("ios: reconstruction produced invalid stage in block ending at %q", b.Exit.Name)
		}
		stages = append(stages, Stage{Groups: groups})
		done |= T
	}
	return stages, nil
}

// stageGroups checks whether the member subset T can execute as one stage
// given the already-executed set done, and if so returns its grouping:
// weakly-connected components of T, each of which must form a dependency
// chain. Operators may depend on earlier operators in their own chain or
// on anything in done (or outside the block); cross-group intra-stage
// dependencies are invalid because groups only synchronize at stage end.
func stageGroups(T, done uint32, members []*graph.Node, depMask []uint32) ([]Group, bool) {
	n := len(members)
	// Dependency closure: every in-block dep must be in done or in T.
	for i := 0; i < n; i++ {
		if T&(1<<i) == 0 {
			continue
		}
		if depMask[i]&^(done|T) != 0 {
			return nil, false
		}
	}
	// Union-find over edges internal to T.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := 0; i < n; i++ {
		if T&(1<<i) == 0 {
			continue
		}
		deps := depMask[i] & T
		for deps != 0 {
			j := bits.TrailingZeros32(deps)
			deps &^= 1 << j
			ri, rj := find(i), find(j)
			if ri != rj {
				parent[ri] = rj
			}
		}
	}
	comps := map[int][]int{}
	for i := 0; i < n; i++ {
		if T&(1<<i) != 0 {
			r := find(i)
			comps[r] = append(comps[r], i)
		}
	}
	var roots []int
	for r := range comps {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	var groups []Group
	for _, r := range roots {
		comp := comps[r] // ascending bit order == topological (IDs ascend)
		// Chain check: each member's in-T deps must be exactly the previous
		// member (or empty for the first).
		for pos, i := range comp {
			inT := depMask[i] & T
			if pos == 0 {
				if inT != 0 {
					return nil, false
				}
			} else if inT != 1<<comp[pos-1] {
				return nil, false
			}
		}
		g := make(Group, len(comp))
		for pos, i := range comp {
			g[pos] = members[i]
		}
		groups = append(groups, g)
	}
	return groups, true
}

// greedyBlockStages builds ASAP-level stages for one block (fallback for
// oversized blocks).
func greedyBlockStages(b *graph.Block) []Stage {
	inBlock := map[int]bool{}
	for _, m := range b.Members {
		inBlock[m.ID] = true
	}
	level := map[int]int{}
	maxLevel := 0
	for _, m := range b.Members {
		l := 0
		for _, in := range m.Inputs {
			if inBlock[in.ID] && level[in.ID]+1 > l {
				l = level[in.ID] + 1
			}
		}
		level[m.ID] = l
		if l > maxLevel {
			maxLevel = l
		}
	}
	stages := make([]Stage, maxLevel+1)
	for _, m := range b.Members {
		l := level[m.ID]
		stages[l].Groups = append(stages[l].Groups, Group{m})
	}
	return stages
}

// mergeLinearStages merges runs of adjacent single-group stages into one
// stage, concatenating their chains. This removes synchronization points
// between consecutive linear segments.
func mergeLinearStages(stages []Stage) []Stage {
	var out []Stage
	for _, st := range stages {
		if len(out) > 0 && len(st.Groups) == 1 && len(out[len(out)-1].Groups) == 1 {
			prev := &out[len(out)-1]
			prev.Groups[0] = append(prev.Groups[0], st.Groups[0]...)
			continue
		}
		out = append(out, st)
	}
	return out
}
