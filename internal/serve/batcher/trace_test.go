package batcher_test

import (
	"context"
	"encoding/json"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"drainnet/internal/metrics"
	"drainnet/internal/model"
	"drainnet/internal/nn"
	"drainnet/internal/serve/batcher"
	"drainnet/internal/sweep"
	"drainnet/internal/telemetry"
	"drainnet/internal/terrain"
)

// traceConfig is the 40-pixel test architecture the sweep traffic fits.
func traceConfig() model.Config { return model.OriginalSPPNet().Scaled(16).WithInput(4, 40) }

// benchTraffic is the sweep harness's baseline traffic at 40 pixels: the
// calibration split of every gated plan here and the clips served.
func benchTraffic(t testing.TB) *terrain.Dataset {
	t.Helper()
	ds, err := sweep.BenchTraffic("baseline", 40)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// compileTrace compiles a fresh test network under opts, calibrated on ds.
func compileTrace(t testing.TB, ds *terrain.Dataset, opts model.CompileOptions) *model.Plan {
	t.Helper()
	cfg := traceConfig()
	net, err := cfg.Build(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := model.Compile(cfg, net, func() (*terrain.Dataset, error) { return ds, nil }, opts)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// servedRun is what one pass of the traffic through a pool produced.
type servedRun struct {
	dets   []metrics.Detection
	counts servedCounts
}

// servedCounts are the dynamic path's exit, mask and routing counters.
type servedCounts struct {
	exited, exitTotal     int64
	masked, maskTotal     int64
	routedInt8, routedF32 uint64
}

// serveAll runs ds through a fresh pool over plan, chunk clips per
// SubmitAll, and collects every answer and counter. The plan's dynamic
// counters are reset first, so runs over one plan compare.
func serveAll(t *testing.T, plan *model.Plan, tel *telemetry.Telemetry, ds *terrain.Dataset, chunk int) servedRun {
	t.Helper()
	if d := plan.Dynamic; d != nil {
		d.ExitStats.Reset()
		d.Stats.Reset()
	}
	p, err := batcher.New(traceConfig(), plan.Served, batcher.Options{
		Replicas: 2, MaxBatch: chunk, QueueSize: 4 * chunk, Telemetry: tel, Plan: plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	var run servedRun
	for lo := 0; lo < len(ds.Samples); lo += chunk {
		hi := min(lo+chunk, len(ds.Samples))
		clips := make([]batcher.Clip, hi-lo)
		for i := range clips {
			img := ds.Samples[lo+i].Image
			clips[i] = batcher.Clip{Ctx: context.Background(), X: img.Reshape(append([]int{1}, img.Shape()...)...)}
		}
		p.SubmitAll(clips)
		for i, c := range clips {
			if c.Err != nil {
				t.Fatalf("clip %d: %v", lo+i, c.Err)
			}
			run.dets = append(run.dets, c.Det)
		}
	}
	p.Close()
	st := p.Stats()
	c := &run.counts
	c.routedInt8, c.routedF32 = st.RoutedInt8, st.RoutedFP32
	if d := plan.Dynamic; d != nil {
		c.exited, c.exitTotal = d.ExitStats.Counts()
		c.masked, c.maskTotal = d.Stats.Counts()
	}
	return run
}

// Trace sampling only observes: a pool whose every request is sampled
// must give the same answers, bit for bit, and move the same dynamic
// counters as one whose telemetry is off — with the exit, the masks and
// the int8 route all firing.
func TestTraceSamplingChangesNoAnswer(t *testing.T) {
	ds := benchTraffic(t)
	cases := []struct {
		name string
		opts model.CompileOptions
	}{
		{"dynamic auto", model.CompileOptions{Dynamic: true, Precision: model.PrecisionAuto, MaxAPDrop: 0.05, MaxBatch: 16}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan := compileTrace(t, ds, tc.opts)
			off := serveAll(t, plan, telemetry.NewDisabled(), ds, 16)
			tel := telemetry.New(telemetry.Options{SampleEvery: 1})
			on := serveAll(t, plan, tel, ds, 16)
			tel.Flush()
			traces := tel.Registry().Counter("drainnet_traces_sampled_total", "").Value()
			tel.Close()
			if traces == 0 {
				t.Fatal("no span was traced")
			}

			if d := plan.Dynamic; d != nil {
				if !d.ExitEnabled || !d.MaskEnabled || !d.RouterEnabled {
					t.Fatalf("plan demoted a step: exit=%t mask=%t router=%t", d.ExitEnabled, d.MaskEnabled, d.RouterEnabled)
				}
				if c := off.counts; c.exited == 0 || c.masked == 0 || c.routedInt8 == 0 || c.routedF32 == 0 {
					t.Fatalf("a dynamic step never fired: %+v", c)
				}
			}
			for i := range off.dets {
				if on.dets[i] != off.dets[i] {
					t.Fatalf("clip %d: sampled %+v, unsampled %+v", i, on.dets[i], off.dets[i])
				}
			}
			if on.counts != off.counts {
				t.Fatalf("counters differ: sampled %+v, unsampled %+v", on.counts, off.counts)
			}
		})
	}
}

// capturedTrace is one exported span with its Chrome trace events.
type capturedTrace struct {
	span   telemetry.Span
	events []struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
	}
}

// opName names a module the way a bound stage hook labels it on a batch
// of n samples.
func opName(m nn.Module, n int) string {
	name := nn.ModuleName(m)
	if c, ok := m.(*nn.Conv2D); ok {
		b1, bn := c.Kernels()
		k := bn
		if n == 1 {
			k = b1
		}
		if k != nn.KernelIm2Col {
			name += "[" + k.String() + "]"
		}
	}
	return name
}

// The sampled trace names what the serving executor ran — fused flat
// blocks, int8 convs, autotuned kernels, masked convs and the exit
// probe — and every stage slice lies inside the inference slice, with
// no two of them overlapping.
func TestTraceNamesServedRoute(t *testing.T) {
	ds := benchTraffic(t)
	ds.Samples = ds.Samples[:64]
	cases := []struct {
		name string
		opts model.CompileOptions
		want string // a slice every fp32-path trace must contain
	}{
		{"fp32", model.CompileOptions{}, "Conv2D→ReLU→MaxPool2D"},
		{"int8", model.CompileOptions{Precision: model.PrecisionInt8, MaxAPDrop: 1}, "QuantConv2D→ReLU"},
		{"autotune", model.CompileOptions{Autotune: true, MaxAPDrop: 1, MaxBatch: 8}, ""},
		{"dynamic router", model.CompileOptions{Dynamic: true, Precision: model.PrecisionAuto, MaxAPDrop: 0.05, MaxBatch: 8}, "ExitHead"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan := compileTrace(t, ds, tc.opts)
			var mu sync.Mutex
			var traces []capturedTrace
			tel := telemetry.New(telemetry.Options{SampleEvery: 1, TraceSink: func(s *telemetry.Span, b []byte) {
				ct := capturedTrace{span: *s}
				if err := json.Unmarshal(b, &ct.events); err != nil {
					t.Errorf("trace is not valid JSON: %v", err)
				}
				mu.Lock()
				traces = append(traces, ct)
				mu.Unlock()
			}})
			serveAll(t, plan, tel, ds, 8)
			tel.Close()
			if len(traces) != len(ds.Samples) {
				t.Fatalf("%d traces for %d clips", len(traces), len(ds.Samples))
			}

			sawWant := tc.want == ""
			for _, tr := range traces {
				checkTraceLayout(t, tr)
				var names []string
				for _, e := range tr.events {
					if e.Cat == "kernel/layer" {
						names = append(names, e.Name)
					}
				}
				if len(names) == 0 {
					t.Fatalf("span %d has no stage slices", tr.span.ID)
				}
				for _, n := range names {
					sawWant = sawWant || n == tc.want
				}
				ops := strings.Split(strings.Join(names, "→"), "→")
				if plan.Dynamic != nil && strings.HasPrefix(ops[0], "Quant") {
					continue // the int8 route: its net is the plan's private twin
				}
				var want []string
				for i, m := range plan.Served.Modules() {
					if d := plan.Dynamic; d != nil && i == d.SPPIndex {
						want = append(want, "ExitHead")
						if len(ops) == len(want) {
							break // every clip of the batch exited
						}
					}
					want = append(want, opName(m, tr.span.BatchSize))
				}
				if strings.Join(ops, " ") != strings.Join(want, " ") {
					t.Fatalf("span %d (batch %d) ran %q, served route is %q", tr.span.ID, tr.span.BatchSize, ops, want)
				}
			}
			if !sawWant {
				t.Fatalf("no trace has a %q slice", tc.want)
			}
			if d := plan.Dynamic; d != nil {
				masked := false
				for _, tr := range traces {
					for _, st := range tr.span.Stages {
						masked = masked || strings.Contains(st.Label, "Conv2D[masked]")
					}
				}
				if !masked {
					t.Fatal("no trace names a masked conv")
				}
			}
		})
	}
}

// checkTraceLayout requires every stage slice of one trace to lie inside
// its inference slice and to end before the next one starts: a
// replica's executors run their stages one after another.
func checkTraceLayout(t *testing.T, tr capturedTrace) {
	t.Helper()
	const eps = 1e-3 // µs: both ends are whole nanoseconds
	var inf *float64
	var infEnd float64
	for _, e := range tr.events {
		if strings.HasPrefix(e.Name, "inference ") {
			ts := e.Ts
			inf, infEnd = &ts, e.Ts+e.Dur
		}
	}
	if inf == nil {
		t.Fatalf("span %d has no inference slice", tr.span.ID)
	}
	var slices []int
	for i, e := range tr.events {
		if e.Cat != "kernel/layer" {
			continue
		}
		if e.Ts < *inf-eps || e.Ts+e.Dur > infEnd+eps {
			t.Fatalf("span %d: slice %q [%v, %v] outside inference [%v, %v]",
				tr.span.ID, e.Name, e.Ts, e.Ts+e.Dur, *inf, infEnd)
		}
		slices = append(slices, i)
	}
	sort.Slice(slices, func(i, j int) bool { return tr.events[slices[i]].Ts < tr.events[slices[j]].Ts })
	for k := 1; k < len(slices); k++ {
		prev, next := tr.events[slices[k-1]], tr.events[slices[k]]
		if prev.Ts+prev.Dur > next.Ts+eps {
			t.Fatalf("span %d: slice %q [%v, %v] overlaps %q [%v, %v]",
				tr.span.ID, prev.Name, prev.Ts, prev.Ts+prev.Dur, next.Name, next.Ts, next.Ts+next.Dur)
		}
	}
}
