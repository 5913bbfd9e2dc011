// Package ios implements the Inter-Operator Scheduler of Ding et al.
// (MLSys 2021) as used by the paper: a dynamic program that partitions
// each branched block of an operator DAG into sequential *stages* of
// parallel *groups*, minimizing predicted latency on the simulated GPU.
// Sequential (framework-eager) and greedy (ASAP-levels) baseline
// schedulers are provided for the ablation benchmarks.
package ios

import (
	"fmt"
	"strings"

	"drainnet/internal/graph"
)

// Group is a chain of operators executed sequentially in one stream. It
// is an alias (not a defined type) so that []Group is exactly the
// [][]*graph.Node the shared gpu.CostOracle interface prices — the DP
// hands stages to either oracle without conversion.
type Group = []*graph.Node

// Stage is a set of groups executed concurrently, synchronized at the end.
type Stage struct {
	Groups []Group
}

// Schedule is an execution plan for a graph: stages run in order.
type Schedule struct {
	Name   string
	Stages []Stage
	// Eager marks framework-eager execution semantics: the runtime pays a
	// per-operator dispatch overhead, modeling PyTorch/TensorFlow-style
	// sequential execution (the paper's baseline).
	Eager bool
}

// NumKernels returns the number of kernel launches in the schedule.
func (s *Schedule) NumKernels() int {
	n := 0
	for _, st := range s.Stages {
		for _, g := range st.Groups {
			n += len(g)
		}
	}
	return n
}

// String renders the schedule compactly, one stage per line.
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule %s (%d stages):\n", s.Name, len(s.Stages))
	for i, st := range s.Stages {
		fmt.Fprintf(&b, "  stage %d: ", i)
		for j, g := range st.Groups {
			if j > 0 {
				b.WriteString(" | ")
			}
			var names []string
			for _, n := range g {
				names = append(names, n.Name)
			}
			b.WriteString(strings.Join(names, "→"))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Validate checks that the schedule executes every non-input node of g
// exactly once and respects dependencies: an operator's inputs must be
// scheduled in an earlier stage, or earlier within the same group.
func (s *Schedule) Validate(g *graph.Graph) error {
	doneStage := make(map[int]int)   // node ID -> stage index
	groupPos := make(map[int][2]int) // node ID -> (stage, group)
	posInGroup := make(map[int]int)
	for si, st := range s.Stages {
		for gi, gr := range st.Groups {
			for pi, n := range gr {
				if n.Kind == graph.OpInput {
					return fmt.Errorf("ios: schedule %s contains the input node", s.Name)
				}
				if _, dup := doneStage[n.ID]; dup {
					return fmt.Errorf("ios: node %q scheduled twice", n.Name)
				}
				doneStage[n.ID] = si
				groupPos[n.ID] = [2]int{si, gi}
				posInGroup[n.ID] = pi
			}
		}
	}
	for _, n := range g.Nodes {
		if n.Kind == graph.OpInput {
			continue
		}
		if _, ok := doneStage[n.ID]; !ok {
			return fmt.Errorf("ios: node %q missing from schedule", n.Name)
		}
		for _, in := range n.Inputs {
			if in.Kind == graph.OpInput {
				continue
			}
			ds, ok := doneStage[in.ID]
			if !ok {
				return fmt.Errorf("ios: node %q depends on unscheduled %q", n.Name, in.Name)
			}
			switch {
			case ds < doneStage[n.ID]:
				// earlier stage: fine
			case ds == doneStage[n.ID] &&
				groupPos[in.ID] == groupPos[n.ID] &&
				posInGroup[in.ID] < posInGroup[n.ID]:
				// earlier in the same group: fine
			default:
				return fmt.Errorf("ios: node %q cannot see dependency %q (same stage, different group)", n.Name, in.Name)
			}
		}
	}
	return nil
}

// SequentialSchedule returns the framework-eager baseline: every operator
// in topological order in a single stream, with per-op dispatch overhead.
func SequentialSchedule(g *graph.Graph) *Schedule {
	var chain Group
	for _, n := range g.Nodes {
		if n.Kind != graph.OpInput {
			chain = append(chain, n)
		}
	}
	return &Schedule{
		Name:   "sequential",
		Stages: []Stage{{Groups: []Group{chain}}},
		Eager:  true,
	}
}

// GreedySchedule returns the ASAP-levels baseline: every dependency level
// becomes a stage, and every operator in a level is its own group. It
// maximizes concurrency without regard to stage-synchronization cost.
func GreedySchedule(g *graph.Graph) *Schedule {
	level := make(map[int]int)
	maxLevel := 0
	for _, n := range g.Nodes {
		if n.Kind == graph.OpInput {
			level[n.ID] = -1
			continue
		}
		l := 0
		for _, in := range n.Inputs {
			if level[in.ID]+1 > l {
				l = level[in.ID] + 1
			}
		}
		level[n.ID] = l
		if l > maxLevel {
			maxLevel = l
		}
	}
	stages := make([]Stage, maxLevel+1)
	for _, n := range g.Nodes {
		if n.Kind == graph.OpInput {
			continue
		}
		l := level[n.ID]
		stages[l].Groups = append(stages[l].Groups, Group{n})
	}
	return &Schedule{Name: "greedy", Stages: stages}
}
