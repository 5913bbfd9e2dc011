package nn

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"drainnet/internal/graph"
	"drainnet/internal/ios"
	"drainnet/internal/tensor"
)

// buildSPPPair constructs matching (network, graph) with the branched
// SPP structure the scheduler exploits. stride applies to the second
// conv so tests cover stride>1 feature maps.
func buildSPPPair(t *testing.T, rng *rand.Rand, stride int) (*Sequential, *graph.Graph) {
	t.Helper()
	const (
		inC, size = 3, 21
		c1, c2    = 6, 10
		fcw, head = 24, 5
	)
	net := NewSequential()
	net.Add(NewConv2D(rng, inC, c1, 3, 1))
	net.Add(NewReLU())
	net.Add(NewMaxPool2D(2, 2))
	net.Add(NewConv2D(rng, c1, c2, 3, stride))
	net.Add(NewReLU())
	spp := NewSPP(3, 2, 1)
	net.Add(spp)
	net.Add(NewLinear(rng, spp.OutFeatures(c2), fcw))
	net.Add(NewReLU())
	net.Add(NewLinear(rng, fcw, head))

	g := graph.NewGraph("spp-test", inC, size, size)
	x := g.Conv(g.In, "conv1", c1, 3, 1)
	x = g.Pool(x, "pool1", 2, 2)
	x = g.Conv(x, "conv2", c2, 3, stride)
	var branches []*graph.Node
	for _, l := range []int{3, 2, 1} {
		branches = append(branches, g.AdaptivePool(x, "spp", l))
	}
	cat := g.Concat(branches, "spp_concat")
	h := g.FC(cat, "fc1", fcw)
	g.FC(h, "head", head)
	if err := g.Validate(); err != nil {
		t.Fatalf("graph: %v", err)
	}
	return net, g
}

// assertBitwiseEqual fails unless got and want agree on shape and on
// every element's exact bit pattern.
func assertBitwiseEqual(t *testing.T, label string, got, want *tensor.Tensor) {
	t.Helper()
	gd, wd := got.Data(), want.Data()
	if len(gd) != len(wd) {
		t.Fatalf("%s: size %d != %d", label, len(gd), len(wd))
	}
	for i := range gd {
		if math.Float32bits(gd[i]) != math.Float32bits(wd[i]) {
			t.Fatalf("%s: element %d differs: %g (%#x) != %g (%#x)",
				label, i, gd[i], math.Float32bits(gd[i]), wd[i], math.Float32bits(wd[i]))
		}
	}
}

func TestCompileGraphRejectsMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net, g := buildSPPPair(t, rng, 1)
	// A trailing module the graph does not represent must fail.
	net2 := NewSequential()
	for _, m := range net.Modules() {
		net2.Add(m)
	}
	net2.Add(NewLinear(rng, 5, 5))
	if _, err := CompileGraph(net2, g); err == nil {
		t.Fatal("CompileGraph accepted a network with trailing modules")
	}
	// A wrong-width conv must fail the shape check.
	net3 := NewSequential()
	net3.Add(NewConv2D(rng, 3, 7, 3, 1))
	for _, m := range net.Modules()[1:] {
		net3.Add(m)
	}
	if _, err := CompileGraph(net3, g); err == nil {
		t.Fatal("CompileGraph accepted a channel mismatch")
	}
}

// TestScheduleExecutorMatchesInfer checks the three canonical schedules
// (sequential, greedy ASAP levels, IOS-optimized via a fake oracle is
// covered by the property test) at batch 1 and 16, with stride 1 and 2.
func TestScheduleExecutorMatchesInfer(t *testing.T) {
	for _, stride := range []int{1, 2} {
		rng := rand.New(rand.NewSource(int64(7 + stride)))
		net, g := buildSPPPair(t, rng, stride)
		PrepareInference(net)
		prog, err := CompileGraph(net, g)
		if err != nil {
			t.Fatalf("compile (stride %d): %v", stride, err)
		}
		for _, sched := range []*ios.Schedule{ios.SequentialSchedule(g), ios.GreedySchedule(g)} {
			exec, err := NewScheduleExecutor(prog, sched)
			if err != nil {
				t.Fatalf("executor %s: %v", sched.Name, err)
			}
			for _, batch := range []int{1, 16} {
				x := randInput(rng, batch, 3, 21, 21)
				wantArena, gotArena := tensor.NewArena(), tensor.NewArena()
				want := net.Infer(x, wantArena)
				got := exec.Infer(x, gotArena)
				assertBitwiseEqual(t, sched.Name, got, want)
			}
		}
	}
}

// randomSchedule generates a valid random stage partition of g: nodes
// are taken in topological order; stages close at random; within a
// stage a node chains onto the group holding its in-stage dependency
// (required for validity) or lands in a random or fresh group.
func randomSchedule(g *graph.Graph, rng *rand.Rand) *ios.Schedule {
	var stages []ios.Stage
	cur := ios.Stage{}
	pos := map[int][2]int{} // node ID -> (group, index) within cur
	flush := func() {
		if len(cur.Groups) > 0 {
			stages = append(stages, cur)
			cur = ios.Stage{}
			pos = map[int][2]int{}
		}
	}
	for _, n := range g.Nodes {
		if n.Kind == graph.OpInput {
			continue
		}
		if rng.Intn(3) == 0 {
			flush()
		}
		// A dependency inside the current stage forces chaining onto its
		// group — and only works when it is that group's tail.
		forced, valid := -1, true
		for _, dep := range n.Inputs {
			p, in := pos[dep.ID]
			if !in {
				continue
			}
			if p[1] != len(cur.Groups[p[0]])-1 || (forced != -1 && forced != p[0]) {
				valid = false
				break
			}
			forced = p[0]
		}
		if !valid {
			flush()
			forced = -1
		}
		switch {
		case forced >= 0:
			cur.Groups[forced] = append(cur.Groups[forced], n)
			pos[n.ID] = [2]int{forced, len(cur.Groups[forced]) - 1}
		case len(cur.Groups) > 0 && rng.Intn(2) == 0:
			gi := rng.Intn(len(cur.Groups))
			cur.Groups[gi] = append(cur.Groups[gi], n)
			pos[n.ID] = [2]int{gi, len(cur.Groups[gi]) - 1}
		default:
			cur.Groups = append(cur.Groups, ios.Group{n})
			pos[n.ID] = [2]int{len(cur.Groups) - 1, 0}
		}
	}
	flush()
	return &ios.Schedule{Name: "random", Stages: stages}
}

// TestScheduleExecutorPartitionProperty is the property test: ANY valid
// stage partition of the SPP DAG — random stage boundaries, random
// groupings, stride-1 and stride-2 variants — executed by the
// ScheduleExecutor must reproduce Sequential.Infer bit for bit at batch
// 1 and 16.
func TestScheduleExecutorPartitionProperty(t *testing.T) {
	for _, stride := range []int{1, 2} {
		rng := rand.New(rand.NewSource(int64(40 + stride)))
		net, g := buildSPPPair(t, rng, stride)
		PrepareInference(net)
		prog, err := CompileGraph(net, g)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		x1 := randInput(rng, 1, 3, 21, 21)
		x16 := randInput(rng, 16, 3, 21, 21)
		seqArena := tensor.NewArena()
		want1 := net.Infer(x1, seqArena).Clone()
		seqArena.Reset()
		want16 := net.Infer(x16, seqArena).Clone()
		for trial := 0; trial < 25; trial++ {
			sched := randomSchedule(g, rng)
			if err := sched.Validate(g); err != nil {
				t.Fatalf("trial %d generated an invalid schedule: %v", trial, err)
			}
			exec, err := NewScheduleExecutor(prog, sched)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			a := tensor.NewArena()
			assertBitwiseEqual(t, sched.String(), exec.Infer(x1, a), want1)
			a.Reset()
			assertBitwiseEqual(t, sched.String(), exec.Infer(x16, a), want16)
		}
	}
}

// TestScheduleExecutorStageHook checks the hook fires exactly once per
// scheduled group with consistent indices and labels, and that the
// hooked run still matches the plain one bitwise.
func TestScheduleExecutorStageHook(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net, g := buildSPPPair(t, rng, 1)
	PrepareInference(net)
	prog, err := CompileGraph(net, g)
	if err != nil {
		t.Fatal(err)
	}
	sched := ios.GreedySchedule(g)
	exec, err := NewScheduleExecutor(prog, sched)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	seen := map[[2]int]string{}
	x := randInput(rng, 2, 3, 21, 21)
	a := tensor.NewArena()
	exec.SetStageHook(func(stage, group, groups int, label string, start time.Time, d time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		if groups != len(sched.Stages[stage].Groups) {
			t.Errorf("stage %d reported %d groups, schedule has %d", stage, groups, len(sched.Stages[stage].Groups))
		}
		if d < 0 || start.IsZero() {
			t.Errorf("stage %d group %d: bad timing start=%v dur=%v", stage, group, start, d)
		}
		if prev, dup := seen[[2]int{stage, group}]; dup {
			t.Errorf("stage %d group %d ran twice (%s, %s)", stage, group, prev, label)
		}
		seen[[2]int{stage, group}] = label
	})
	got := exec.Infer(x, a)
	want := net.Infer(x, tensor.NewArena())
	assertBitwiseEqual(t, "hooked", got, want)
	total := 0
	for _, st := range sched.Stages {
		total += len(st.Groups)
	}
	if len(seen) != total {
		t.Fatalf("hook fired for %d groups, schedule has %d", len(seen), total)
	}
}

func TestMeasuredOracleOverProgram(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net, g := buildSPPPair(t, rng, 1)
	PrepareInference(net)
	prog, err := CompileGraph(net, g)
	if err != nil {
		t.Fatal(err)
	}
	oracle := ios.NewMeasuredOracle(prog, nil)
	oracle.Warmup, oracle.Samples, oracle.MinSampleNs = 0, 4, 1e3 // fast test settings
	sched, err := ios.Optimize(g, oracle, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := oracle.Err(); err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if oracle.Cache().Len() == 0 {
		t.Fatal("oracle measured nothing")
	}
	exec, err := NewScheduleExecutor(prog, sched)
	if err != nil {
		t.Fatal(err)
	}
	x := randInput(rng, 2, 3, 21, 21)
	a := tensor.NewArena()
	want := net.Infer(x, tensor.NewArena())
	assertBitwiseEqual(t, "measured-optimized", exec.Infer(x, a), want)
}
