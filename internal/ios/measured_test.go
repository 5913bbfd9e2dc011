package ios

import (
	"path/filepath"
	"testing"
	"time"

	"drainnet/internal/graph"
)

// fakeRunner is an OpRunner whose operators burn a fixed, node-dependent
// amount of time, so oracle arithmetic is checkable.
type fakeRunner struct {
	delay time.Duration
	binds int
	runs  int
}

func (f *fakeRunner) BindOp(n *graph.Node, batch int) error {
	f.binds++
	return nil
}

func (f *fakeRunner) RunOp() {
	f.runs++
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
}

func branchyGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.NewGraph("m", 3, 16, 16)
	x := g.Conv(g.In, "conv", 4, 3, 1)
	a := g.AdaptivePool(x, "a", 2)
	b := g.AdaptivePool(x, "b", 1)
	cat := g.Concat([]*graph.Node{a, b}, "cat")
	g.FC(cat, "fc", 8)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func fastOracle(r OpRunner, cache *CostCache) *MeasuredOracle {
	o := NewMeasuredOracle(r, cache)
	o.Warmup, o.Samples, o.MinSampleNs = 0, 4, 0
	return o
}

func TestMeasuredOracleCachesMeasurements(t *testing.T) {
	g := branchyGraph(t)
	r := &fakeRunner{}
	o := fastOracle(r, nil)
	conv := g.Nodes[1]
	first := o.OpCost(conv, 2)
	runsAfterFirst := r.runs
	second := o.OpCost(conv, 2)
	if first != second {
		t.Fatalf("cached cost changed: %g != %g", first, second)
	}
	if r.runs != runsAfterFirst {
		t.Fatalf("second OpCost re-measured (%d extra runs)", r.runs-runsAfterFirst)
	}
	// A different batch size is a different measurement.
	o.OpCost(conv, 4)
	if r.runs == runsAfterFirst {
		t.Fatal("batch change did not trigger a new measurement")
	}
}

func TestCostCacheRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "costs.json")
	c := NewCostCache()
	c.Entries["p1|b2|conv|..."] = 123.5
	c.Entries["p1|b2|conv|...|prec=int8"] = 456.25
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCostCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || got.Entries["p1|b2|conv|..."] != 123.5 {
		t.Fatalf("round trip lost data: %+v", got.Entries)
	}
	// Missing file loads empty without error.
	empty, err := LoadCostCache(filepath.Join(t.TempDir(), "missing.json"))
	if err != nil || empty.Len() != 0 {
		t.Fatalf("missing file: cache=%v err=%v", empty, err)
	}
	// Version mismatch loads empty: a newer version, and version 1, whose
	// NAS entries were timed on the scheduled executor that no longer
	// serves and would rank candidates on stale numbers.
	for _, v := range []int{999, 1} {
		c.Version = v
		if err := c.Save(path); err != nil {
			t.Fatal(err)
		}
		stale, err := LoadCostCache(path)
		if err != nil || stale.Len() != 0 {
			t.Fatalf("version %d should load empty, got %d entries err=%v", v, stale.Len(), err)
		}
	}
}

func TestMeasuredOracleWarmCacheSkipsMeasurement(t *testing.T) {
	g := branchyGraph(t)
	r1 := &fakeRunner{}
	o1 := fastOracle(r1, nil)
	o1.OpCost(g.Nodes[2], 1)
	o1.OpCost(g.Nodes[3], 1)
	// Second oracle over the saved cache must not touch its runner.
	r2 := &fakeRunner{}
	o2 := fastOracle(r2, o1.Cache())
	o2.OpCost(g.Nodes[2], 1)
	o2.OpCost(g.Nodes[3], 1)
	if r2.binds != 0 || r2.runs != 0 {
		t.Fatalf("warm cache still measured: binds=%d runs=%d", r2.binds, r2.runs)
	}
}
