package train

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"drainnet/internal/model"
	"drainnet/internal/nn"
	"drainnet/internal/tensor"
)

func buildTestNet(t *testing.T, seed int64) *nn.Sequential {
	t.Helper()
	net, err := model.OriginalSPPNet().Scaled(16).WithInput(4, 32).Build(rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestCheckpointRoundTrip(t *testing.T) {
	src := buildTestNet(t, 1)
	dst := buildTestNet(t, 2) // different init
	var buf bytes.Buffer
	if err := Save(&buf, src); err != nil {
		t.Fatal(err)
	}
	if err := Load(&buf, dst); err != nil {
		t.Fatal(err)
	}
	// Identical parameters → identical outputs.
	x := tensor.New(1, 4, 32, 32)
	x.RandNormal(rand.New(rand.NewSource(3)), 0, 1)
	ya := src.Forward(x)
	yb := dst.Forward(x)
	if !ya.AllClose(yb, 1e-6, 1e-6) {
		t.Fatal("loaded network differs from saved network")
	}
}

func TestCheckpointArchitectureMismatch(t *testing.T) {
	src := buildTestNet(t, 1)
	other, err := model.SPPNet2().Scaled(16).WithInput(4, 48).Build(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, src); err != nil {
		t.Fatal(err)
	}
	if err := Load(&buf, other); err == nil {
		t.Fatal("expected error for architecture mismatch")
	}
}

func TestCheckpointGarbageInput(t *testing.T) {
	dst := buildTestNet(t, 1)
	if err := Load(bytes.NewReader([]byte("not a checkpoint")), dst); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ckpt")
	src := buildTestNet(t, 4)
	if err := SaveFile(path, src); err != nil {
		t.Fatal(err)
	}
	dst := buildTestNet(t, 5)
	if err := LoadFile(path, dst); err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, 4, 32, 32)
	x.RandNormal(rand.New(rand.NewSource(6)), 0, 1)
	if !src.Forward(x).AllClose(dst.Forward(x), 1e-6, 1e-6) {
		t.Fatal("file round trip changed parameters")
	}
}

func TestLoadFileMissing(t *testing.T) {
	dst := buildTestNet(t, 1)
	if err := LoadFile(filepath.Join(t.TempDir(), "nope.ckpt"), dst); err == nil {
		t.Fatal("expected error for missing file")
	}
}

// fuzzNet is a two-layer net small enough that fuzz inputs stay short.
func fuzzNet(seed int64) *nn.Sequential {
	rng := rand.New(rand.NewSource(seed))
	return nn.NewSequential(nn.NewLinear(rng, 3, 2), nn.NewLinear(rng, 2, 1))
}

// resized is net's checkpoint with parameter i's data cut or padded to
// n values, its shape left as saved.
func resized(t testing.TB, net *nn.Sequential, i, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, net); err != nil {
		t.Fatal(err)
	}
	var cf checkpointFile
	if err := gob.NewDecoder(&buf).Decode(&cf); err != nil {
		t.Fatal(err)
	}
	cf.Params[i].Data = append(cf.Params[i].Data, make([]float32, max(0, n-len(cf.Params[i].Data)))...)[:n]
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(cf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A tensor whose data is shorter or longer than its shape is refused,
// and the net keeps its weights: a short one used to load partially,
// the tail keeping its initial values, with no error.
func TestCheckpointWrongLengthRefused(t *testing.T) {
	src := fuzzNet(1)
	for _, n := range []int{0, 5, 7} { // the first weight holds 6
		dst := fuzzNet(2)
		before := append([]float32(nil), dst.Params()[0].Value.Data()...)
		if err := Load(bytes.NewReader(resized(t, src, 0, n)), dst); err == nil {
			t.Fatalf("%d of 6 values loaded without an error", n)
		}
		for j, v := range dst.Params()[0].Value.Data() {
			if v != before[j] {
				t.Fatalf("%d of 6 values: a refused load wrote value %d", n, j)
			}
		}
	}
}

// Load on arbitrary bytes either fails and leaves the net as it was, or
// succeeds and every parameter equals the decoded checkpoint bit for
// bit. Seeds: a Save of the net, truncations of it, resized tensors.
func FuzzLoadCheckpoint(f *testing.F) {
	var buf bytes.Buffer
	if err := Save(&buf, fuzzNet(1)); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	for _, n := range []int{0, 1, len(good) / 2, len(good) - 5, len(good) - 1} {
		f.Add(good[:n])
	}
	f.Add(resized(f, fuzzNet(1), 0, 5))
	f.Add(resized(f, fuzzNet(1), 3, 2))
	f.Fuzz(func(t *testing.T, b []byte) {
		net := fuzzNet(2)
		var before [][]float32
		for _, p := range net.Params() {
			before = append(before, append([]float32(nil), p.Value.Data()...))
		}
		if err := Load(bytes.NewReader(b), net); err != nil {
			for i, p := range net.Params() {
				for j, v := range p.Value.Data() {
					if math.Float32bits(v) != math.Float32bits(before[i][j]) {
						t.Fatalf("failed load (%v) changed %s[%d]", err, p.Name, j)
					}
				}
			}
			return
		}
		var cf checkpointFile
		if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&cf); err != nil {
			t.Fatalf("Load accepted bytes gob cannot decode: %v", err)
		}
		for i, p := range net.Params() {
			saved := cf.Params[i].Data
			if len(saved) != p.Value.Len() {
				t.Fatalf("%s: loaded from %d saved values into %d", p.Name, len(saved), p.Value.Len())
			}
			for j, v := range p.Value.Data() {
				if math.Float32bits(v) != math.Float32bits(saved[j]) {
					t.Fatalf("%s[%d] = %v, saved %v", p.Name, j, v, saved[j])
				}
			}
		}
	})
}
