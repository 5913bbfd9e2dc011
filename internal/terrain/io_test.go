package terrain

import (
	"bytes"
	"encoding/gob"
	"path/filepath"
	"testing"
)

func TestDatasetSaveLoadRoundTrip(t *testing.T) {
	cc := DefaultClipConfig()
	cc.Size = 48
	_, ds := buildTestDataset(t, cc)
	var buf bytes.Buffer
	if err := SaveDataset(&buf, ds); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.ClipSize != ds.ClipSize || len(got.Samples) != len(ds.Samples) {
		t.Fatalf("round trip changed structure: %d/%d samples", len(got.Samples), len(ds.Samples))
	}
	for i := range ds.Samples {
		if !got.Samples[i].Image.Equal(ds.Samples[i].Image) {
			t.Fatalf("sample %d pixels changed", i)
		}
		if got.Samples[i].Target != ds.Samples[i].Target {
			t.Fatalf("sample %d target changed", i)
		}
		if got.Samples[i].Origin != ds.Samples[i].Origin {
			t.Fatalf("sample %d origin changed", i)
		}
	}
}

func TestSaveDatasetEmptyFails(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveDataset(&buf, &Dataset{ClipSize: 40}); err == nil {
		t.Fatal("expected error for empty dataset")
	}
}

func TestLoadDatasetGarbage(t *testing.T) {
	if _, err := LoadDataset(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("expected decode error")
	}
}

// A header is outside input: sizes that are not positive, or whose
// product overflows or disagrees with the pixels present, are refused,
// not turned into tensors of negative or absurd shape.
func TestLoadDatasetRefusesHostileHeader(t *testing.T) {
	for _, tc := range []struct {
		name            string
		clipSize, bands int
		pixels          int
		ok              bool
	}{
		{"negative clip size", -2, 1, 4, false},
		{"negative bands", 0, -1, 0, false},
		{"product wraps to zero", 1 << 31, 4, 0, false},
		{"pixels disagree", 3, 2, 17, false},
		{"valid", 3, 2, 18, true},
	} {
		var buf bytes.Buffer
		df := datasetFile{Format: datasetFormat, ClipSize: tc.clipSize, Bands: tc.bands,
			Samples: []sampleRecord{{Pixels: make([]float32, tc.pixels)}}}
		if err := gob.NewEncoder(&buf).Encode(df); err != nil {
			t.Fatal(err)
		}
		ds, err := LoadDataset(&buf)
		switch {
		case tc.ok && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.ok && (len(ds.Samples) != 1 || ds.Samples[0].Image.Dim(0) != tc.bands || ds.Samples[0].Image.Dim(2) != tc.clipSize):
			t.Errorf("%s: loaded shape %v", tc.name, ds.Samples[0].Image.Shape())
		case !tc.ok && err == nil:
			t.Errorf("%s: header {ClipSize: %d, Bands: %d} with %d pixels loaded", tc.name, tc.clipSize, tc.bands, tc.pixels)
		}
	}
}

func TestDatasetFileRoundTrip(t *testing.T) {
	cc := DefaultClipConfig()
	cc.Size = 48
	_, ds := buildTestDataset(t, cc)
	path := filepath.Join(t.TempDir(), "ds.gob")
	if err := SaveDatasetFile(path, ds); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDatasetFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Samples) != len(ds.Samples) {
		t.Fatal("file round trip lost samples")
	}
}

func TestLoadDatasetFileMissing(t *testing.T) {
	if _, err := LoadDatasetFile(filepath.Join(t.TempDir(), "nope.gob")); err == nil {
		t.Fatal("expected error")
	}
}
