package nn

import (
	"fmt"
	"strings"
	"time"

	"drainnet/internal/graph"
	"drainnet/internal/ios"
	"drainnet/internal/tensor"
)

// This file is the IOS → real-execution bridge: it binds the operator
// DAG (internal/graph) produced for the IOS scheduler to the concrete
// layers of a Sequential, so an IOS schedule — stages of concurrent
// groups — can run for real on the shared worker pool instead of only
// on the simulated GPU.
//
// Execution reuses the exact inference kernels of Sequential.Infer
// (packed conv/linear with fused ReLU epilogues, argmax-free pools), so
// scheduled output is bit-for-bit identical to Sequential.Infer: every
// output element is produced by the same kernel accumulating in the
// same order, regardless of which stage or group computed it.

// execKind selects the kernel family of one compiled operator.
type execKind uint8

const (
	execConv execKind = iota
	execPool
	execAdaptivePool
	execLinear
	execConcat
	execReLU
	execQuantConv
	execQuantLinear
)

// compiledOp binds one graph node to the concrete layer that executes
// it. Ops are immutable descriptors: all mutable state (input/output
// tensors, scratch) is owned by the executor running them, so one
// program can back several executors.
type compiledOp struct {
	node *graph.Node
	kind execKind

	conv  *Conv2D
	pool  *MaxPool2D
	adap  *AdaptiveMaxPool2D
	lin   *Linear
	act   *ReLU
	qconv *QuantConv2D
	qlin  *QuantLinear
	// relu marks a ReLU fused into the conv/linear epilogue (the graph
	// folds activations into their producing kernel; the Sequential keeps
	// them as separate modules).
	relu bool

	inputs []int // node IDs read by this op

	// concat layout: per-branch per-sample feature counts and the total.
	concatFeat  []int
	concatWidth int
}

// GraphProgram is a Sequential compiled against its operator DAG: one
// executable descriptor per graph node. It also implements the measured
// oracle's operator benchmark hooks (BindOp/RunOp), so the same binding
// that executes schedules also prices them.
type GraphProgram struct {
	seq    *Sequential
	g      *graph.Graph
	byNode []*compiledOp // indexed by node ID; nil for the input node

	// operator-measurement state (BindOp/RunOp).
	measOp      *compiledOp
	measInputs  *tensor.Arena // holds the bound synthetic inputs
	measScratch *tensor.Arena // reset every RunOp
	measOuts    []*tensor.Tensor
}

// CompileGraph binds seq's layers to the nodes of g, which must describe
// the same architecture at the same widths (use Config.BuildScaledGraph
// for width-scaled networks). The walk is structural: conv nodes consume
// a Conv2D (+ a following ReLU, fused), pool nodes a MaxPool2D, the SPP
// pyramid's adaptive-pool branches and concat consume the SPP layer, and
// matmul nodes consume a Linear (+ fused ReLU). A module the graph does
// not represent — or a shape mismatch — is an error, so callers can fall
// back to plain Sequential.Infer.
func CompileGraph(seq *Sequential, g *graph.Graph) (*GraphProgram, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("nn: compile: %w", err)
	}
	p := &GraphProgram{
		seq:         seq,
		g:           g,
		byNode:      make([]*compiledOp, len(g.Nodes)),
		measInputs:  tensor.NewArena(),
		measScratch: tensor.NewArena(),
		measOuts:    make([]*tensor.Tensor, len(g.Nodes)),
	}
	mods := seq.Modules()
	mi := 0
	next := func() Module {
		if mi >= len(mods) {
			return nil
		}
		m := mods[mi]
		mi++
		return m
	}
	peekReLU := func() bool {
		if mi < len(mods) {
			if _, ok := mods[mi].(*ReLU); ok {
				mi++
				return true
			}
		}
		return false
	}

	var spp *SPP     // SPP layer currently being consumed branch-by-branch
	sppBranch := 0   // next pyramid level to bind
	var sppIDs []int // node IDs of the bound branches, in order

	for _, n := range g.Nodes {
		op := &compiledOp{node: n}
		for _, in := range n.Inputs {
			op.inputs = append(op.inputs, in.ID)
		}
		switch n.Kind {
		case graph.OpInput:
			continue
		case graph.OpConv:
			m := next()
			qconv, _ := m.(*QuantConv2D)
			conv, ok := Unwrap(m).(*Conv2D)
			if !ok {
				return nil, fmt.Errorf("nn: compile: node %q wants a Conv2D", n.Name)
			}
			if conv.InC != n.InShape[0] || conv.OutC != n.OutShape[0] {
				return nil, fmt.Errorf("nn: compile: node %q channels %d→%d, layer %d→%d",
					n.Name, n.InShape[0], n.OutShape[0], conv.InC, conv.OutC)
			}
			if oh, ow := conv.Geom.OutSize(n.InShape[1], n.InShape[2]); oh != n.OutShape[1] || ow != n.OutShape[2] {
				return nil, fmt.Errorf("nn: compile: node %q geometry mismatch", n.Name)
			}
			if qconv != nil {
				op.kind, op.qconv, op.relu = execQuantConv, qconv, peekReLU()
			} else {
				op.kind, op.conv, op.relu = execConv, conv, peekReLU()
			}
		case graph.OpPool:
			pool, ok := next().(*MaxPool2D)
			if !ok {
				return nil, fmt.Errorf("nn: compile: node %q wants a MaxPool2D", n.Name)
			}
			if oh, ow := pool.Geom.OutSize(n.InShape[1], n.InShape[2]); oh != n.OutShape[1] || ow != n.OutShape[2] {
				return nil, fmt.Errorf("nn: compile: node %q geometry mismatch", n.Name)
			}
			op.kind, op.pool = execPool, pool
		case graph.OpAdaptivePool:
			if spp == nil {
				s, ok := next().(*SPP)
				if !ok {
					return nil, fmt.Errorf("nn: compile: node %q wants an SPP layer", n.Name)
				}
				spp, sppBranch, sppIDs = s, 0, sppIDs[:0]
			}
			if sppBranch >= len(spp.pools) || spp.Levels[sppBranch] != n.OutShape[1] {
				return nil, fmt.Errorf("nn: compile: node %q does not match SPP levels %v", n.Name, spp.Levels)
			}
			op.kind, op.adap = execAdaptivePool, spp.pools[sppBranch]
			sppBranch++
			sppIDs = append(sppIDs, n.ID)
		case graph.OpConcat:
			if spp == nil || sppBranch != len(spp.pools) {
				return nil, fmt.Errorf("nn: compile: node %q concatenates outside a complete SPP pyramid", n.Name)
			}
			if len(op.inputs) != len(sppIDs) {
				return nil, fmt.Errorf("nn: compile: node %q concatenates %d branches, SPP has %d", n.Name, len(op.inputs), len(sppIDs))
			}
			for i, id := range op.inputs {
				if id != sppIDs[i] {
					return nil, fmt.Errorf("nn: compile: node %q branch order differs from the SPP pyramid", n.Name)
				}
			}
			op.kind = execConcat
			for _, in := range n.Inputs {
				f := tensor.Volume(in.OutShape)
				op.concatFeat = append(op.concatFeat, f)
				op.concatWidth += f
			}
			spp = nil
		case graph.OpMatMul:
			m := next()
			qlin, _ := m.(*QuantLinear)
			lin, ok := Unwrap(m).(*Linear)
			if !ok {
				return nil, fmt.Errorf("nn: compile: node %q wants a Linear", n.Name)
			}
			if lin.In != tensor.Volume(n.Inputs[0].OutShape) || lin.Out != n.OutShape[0] {
				return nil, fmt.Errorf("nn: compile: node %q features %d→%d, layer %d→%d",
					n.Name, tensor.Volume(n.Inputs[0].OutShape), n.OutShape[0], lin.In, lin.Out)
			}
			if qlin != nil {
				op.kind, op.qlin, op.relu = execQuantLinear, qlin, peekReLU()
			} else {
				op.kind, op.lin, op.relu = execLinear, lin, peekReLU()
			}
		case graph.OpElementwise:
			act, ok := next().(*ReLU)
			if !ok {
				return nil, fmt.Errorf("nn: compile: node %q wants a ReLU", n.Name)
			}
			op.kind, op.act = execReLU, act
		default:
			return nil, fmt.Errorf("nn: compile: node %q has unsupported kind %v", n.Name, n.Kind)
		}
		p.byNode[n.ID] = op
	}
	if mi != len(mods) {
		return nil, fmt.Errorf("nn: compile: %d trailing modules the graph does not represent", len(mods)-mi)
	}
	return p, nil
}

// Graph returns the operator DAG the program was compiled against.
func (p *GraphProgram) Graph() *graph.Graph { return p.g }

// runOp executes one compiled operator: inputs are read from outs by
// node ID, the output is drawn from a and stored back into outs. All
// kernels are the Sequential.Infer ones, so results are bit-identical
// to the unscheduled fast path.
func (p *GraphProgram) runOp(op *compiledOp, outs []*tensor.Tensor, a *tensor.Arena) {
	switch op.kind {
	case execConv:
		outs[op.node.ID] = op.conv.inferFused(outs[op.inputs[0]], a, op.relu)
	case execPool:
		outs[op.node.ID] = op.pool.Infer(outs[op.inputs[0]], a)
	case execAdaptivePool:
		outs[op.node.ID] = op.adap.Infer(outs[op.inputs[0]], a)
	case execLinear:
		in := outs[op.inputs[0]]
		if in.Rank() != 2 {
			in = a.View(in, in.Dim(0), -1)
		}
		outs[op.node.ID] = op.lin.inferFused(in, a, op.relu)
	case execConcat:
		n := outs[op.inputs[0]].Dim(0)
		out := a.Get(n, op.concatWidth)
		od := out.Data()
		col := 0
		for bi, id := range op.inputs {
			feat := op.concatFeat[bi]
			bd := outs[id].Data()
			for i := 0; i < n; i++ {
				copy(od[i*op.concatWidth+col:i*op.concatWidth+col+feat], bd[i*feat:(i+1)*feat])
			}
			col += feat
		}
		outs[op.node.ID] = out
	case execReLU:
		outs[op.node.ID] = op.act.Infer(outs[op.inputs[0]], a)
	case execQuantConv:
		outs[op.node.ID] = op.qconv.inferFused(outs[op.inputs[0]], a, op.relu)
	case execQuantLinear:
		in := outs[op.inputs[0]]
		if in.Rank() != 2 {
			in = a.View(in, in.Dim(0), -1)
		}
		outs[op.node.ID] = op.qlin.inferFused(in, a, op.relu)
	}
}

// OpTag implements the measured oracle's optional precision/kernel
// tagging: nodes bound to int8 kernels are priced separately from fp32
// ones, and fp32 convs running a tuned kernel mix are priced separately
// from the default im2col path, so a warm cost cache stays valid across
// quantization and kernel retuning. The tag for a tuned conv is
// "kern=<batch1>:<batchN>" (e.g. "kern=direct:winograd").
func (p *GraphProgram) OpTag(n *graph.Node) string {
	if n.ID < 0 || n.ID >= len(p.byNode) || p.byNode[n.ID] == nil {
		return ""
	}
	op := p.byNode[n.ID]
	switch op.kind {
	case execQuantConv, execQuantLinear:
		return "int8"
	case execConv:
		if b1, bn := op.conv.Kernels(); b1 != KernelIm2Col || bn != KernelIm2Col {
			return "kern=" + b1.String() + ":" + bn.String()
		}
	}
	return ""
}

// BindOp prepares synthetic inputs for measuring node n at the given
// batch size; RunOp then executes the node's kernels once per call
// against them. Together they implement ios.OpRunner. Inputs are filled
// with deterministic values in (-1, 1) so fused-ReLU and max-pool
// kernels see realistic sign mixes.
func (p *GraphProgram) BindOp(n *graph.Node, batch int) error {
	if n.ID < 0 || n.ID >= len(p.byNode) || p.byNode[n.ID] == nil {
		return fmt.Errorf("nn: program has no operator for node %q", n.Name)
	}
	if batch < 1 {
		return fmt.Errorf("nn: BindOp batch must be ≥ 1")
	}
	p.measInputs.Reset()
	op := p.byNode[n.ID]
	seed := tensor.PseudoSeed
	for _, in := range n.Inputs {
		shape := append([]int{batch}, in.OutShape...)
		t := p.measInputs.Get(shape...)
		seed = tensor.FillPseudo(t.Data(), seed)
		p.measOuts[in.ID] = t
	}
	p.measOp = op
	return nil
}

// RunOp implements ios.OpRunner: one execution of the bound operator.
func (p *GraphProgram) RunOp() {
	p.measScratch.Reset()
	p.runOp(p.measOp, p.measOuts, p.measScratch)
}

// StageHook observes one executed stage group of an inference pass: the
// stage index, the group's index and the stage's group count, the group
// label (operator names joined with "→"), and the group's wall-clock
// window. Sequential chains report each fused block as a one-group stage
// (Sequential.SetStageHook), scheduled executors each IOS group
// (ScheduleExecutor.SetStageHook). Groups of one stage run concurrently,
// so the hook MUST be safe to call from multiple goroutines.
type StageHook func(stage, group, groups int, label string, start time.Time, dur time.Duration)

// execStage is one compiled schedule stage.
type execStage struct {
	groups [][]*compiledOp
	labels []string
}

// ScheduleExecutor runs a Sequential under an IOS schedule: stages in
// order, each stage's groups concurrently on the shared worker pool
// (tensor.ParallelRange). Multi-group stages trade intra-operator
// parallelism for inter-operator parallelism — each group runs inline
// on its worker with a group-owned arena — while single-group stages
// fall back to plain sequential execution with full intra-operator
// parallelism, exactly like Sequential.Infer.
//
// An executor owns per-call state (outputs, group arenas) and must not
// be used from multiple goroutines concurrently; build one per serving
// replica. The returned tensor is valid until the next Infer call or
// caller-arena Reset.
type ScheduleExecutor struct {
	prog   *GraphProgram
	sched  *ios.Schedule
	stages []execStage

	outs   []*tensor.Tensor
	arenas []*tensor.Arena // one per group lane, reset at Infer entry
	task   stageRunTask
	hook   StageHook // SetStageHook; nil runs untimed
}

// NewScheduleExecutor compiles sched against prog. The schedule must be
// valid for the program's graph (every non-input node exactly once,
// dependencies respected).
func NewScheduleExecutor(prog *GraphProgram, sched *ios.Schedule) (*ScheduleExecutor, error) {
	if err := sched.Validate(prog.g); err != nil {
		return nil, fmt.Errorf("nn: executor: %w", err)
	}
	e := &ScheduleExecutor{
		prog:  prog,
		sched: sched,
		outs:  make([]*tensor.Tensor, len(prog.g.Nodes)),
	}
	maxGroups := 0
	for _, st := range sched.Stages {
		es := execStage{}
		for _, gr := range st.Groups {
			ops := make([]*compiledOp, len(gr))
			names := make([]string, len(gr))
			for i, n := range gr {
				ops[i] = prog.byNode[n.ID]
				names[i] = n.Name
			}
			es.groups = append(es.groups, ops)
			es.labels = append(es.labels, strings.Join(names, "→"))
		}
		e.stages = append(e.stages, es)
		if len(es.groups) > maxGroups {
			maxGroups = len(es.groups)
		}
	}
	e.arenas = make([]*tensor.Arena, maxGroups)
	for i := range e.arenas {
		e.arenas[i] = tensor.NewArena()
	}
	return e, nil
}

// Schedule returns the schedule the executor runs.
func (e *ScheduleExecutor) Schedule() *ios.Schedule { return e.sched }

// SetStageHook binds hook to every later Infer: each executed group is
// reported with its compile-time label (nil unbinds).
func (e *ScheduleExecutor) SetStageHook(hook StageHook) { e.hook = hook }

// Infer runs one scheduled inference over x. Temporaries of single-group
// stages are drawn from the caller's arena a (like Sequential.Infer);
// concurrent groups draw from executor-owned arenas that are recycled on
// the next call. Output is bit-for-bit identical to Sequential.Infer.
// In steady state the call performs no heap allocation.
func (e *ScheduleExecutor) Infer(x *tensor.Tensor, a *tensor.Arena) *tensor.Tensor {
	e.outs[e.prog.g.In.ID] = x
	for _, ga := range e.arenas {
		ga.Reset()
	}
	for si := range e.stages {
		st := &e.stages[si]
		if len(st.groups) == 1 {
			// Unbatchable stage: a single chain keeps the caller's arena and
			// full intra-operator parallelism (the pool is free).
			e.runGroup(si, 0, st, a)
			continue
		}
		t := &e.task
		t.exec, t.stage, t.st = e, si, st
		tensor.ParallelRange(len(st.groups), 1, t)
	}
	return e.outs[e.prog.g.Out.ID]
}

// runGroup runs group gi of stage si on arena a and reports it to the
// bound hook.
func (e *ScheduleExecutor) runGroup(si, gi int, st *execStage, a *tensor.Arena) {
	var start time.Time
	if e.hook != nil {
		start = time.Now()
	}
	for _, op := range st.groups[gi] {
		e.prog.runOp(op, e.outs, a)
	}
	if e.hook != nil {
		e.hook(si, gi, len(st.groups), st.labels[gi], start, time.Since(start))
	}
}

// stageRunTask distributes one stage's groups over the worker pool.
// Group gi runs entirely on whichever participant claims index gi, with
// the gi-th executor arena; operator kernels inside the group issue
// nested ParallelRange calls that degrade to inline execution, so a
// group is one sequential chain per worker, as IOS models it.
type stageRunTask struct {
	exec  *ScheduleExecutor
	stage int
	st    *execStage
}

// RunRange implements tensor.Ranger over group indices.
func (t *stageRunTask) RunRange(lo, hi int) {
	for gi := lo; gi < hi; gi++ {
		t.exec.runGroup(t.stage, gi, t.st, t.exec.arenas[gi])
	}
}
