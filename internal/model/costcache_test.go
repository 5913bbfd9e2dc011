package model

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestCostCacheConcurrentAccess hammers one cache from many goroutines —
// the shape of the parallel NAS executor, whose workers share one cache —
// and must pass under -race.
func TestCostCacheConcurrentAccess(t *testing.T) {
	c := NewCostCache()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("w%d|op%d", w, i%17)
				c.Put(key, float64(i))
				if _, ok := c.Get(key); !ok {
					t.Errorf("key %s vanished", key)
					return
				}
				c.Len()
				if i%50 == 0 {
					c.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() != 8*17 {
		t.Fatalf("got %d entries, want %d", c.Len(), 8*17)
	}
}

// TestCostCacheTwoWriterMerge is the two-process scenario: two caches
// with disjoint (and one conflicting) measurements save to the same
// file concurrently. Merge-on-save under the file lock must preserve
// every key, and each writer's own value must win its conflicts.
func TestCostCacheTwoWriterMerge(t *testing.T) {
	path := filepath.Join(t.TempDir(), "costs.json")

	a, b := NewCostCache(), NewCostCache()
	for i := 0; i < 50; i++ {
		a.Put(fmt.Sprintf("a|op%d", i), float64(1+i))
		b.Put(fmt.Sprintf("b|op%d", i), float64(1000+i))
	}
	a.Put("shared", 1)
	b.Put("shared", 2)

	var wg sync.WaitGroup
	for _, c := range []*CostCache{a, b} {
		wg.Add(1)
		go func(c *CostCache) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if err := c.Save(path); err != nil {
					t.Errorf("save: %v", err)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	got, err := LoadCostCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 101 {
		t.Fatalf("merged cache has %d entries, want 101 (a's 50 + b's 50 + shared)", got.Len())
	}
	for i := 0; i < 50; i++ {
		if v, ok := got.Get(fmt.Sprintf("a|op%d", i)); !ok || v != float64(1+i) {
			t.Fatalf("a|op%d = %v,%t after merge", i, v, ok)
		}
		if v, ok := got.Get(fmt.Sprintf("b|op%d", i)); !ok || v != float64(1000+i) {
			t.Fatalf("b|op%d = %v,%t after merge", i, v, ok)
		}
	}
	// The conflicting key holds whichever writer saved last — both are
	// legitimate fresh measurements; it must just be one of them.
	if v, _ := got.Get("shared"); v != 1 && v != 2 {
		t.Fatalf("shared = %v, want 1 or 2", v)
	}

	// A later save from a third cache must keep everything already there.
	c3 := NewCostCache()
	c3.Put("c|only", 7)
	if err := c3.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err = LoadCostCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 102 {
		t.Fatalf("after third writer: %d entries, want 102", got.Len())
	}
	if v, ok := got.Get("a|op0"); !ok || v != 1 {
		t.Fatalf("third writer dropped a|op0: %v,%t", v, ok)
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
	// Version mismatch loads empty: a newer version; version 1, whose
	// NAS entries were timed on the scheduled executor that no longer
	// serves and would rank candidates on stale numbers; and version 2,
	// whose conv keys named a synthetic cost-model node.
	for _, v := range []int{999, 1, 2} {
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

// A hand-edited or hand-repaired file can hold a zero or negative time;
// loaded, it would rank that candidate or kernel as the cheapest. The
// load must refuse it and name the key.
func TestLoadCostCacheRejectsNonPositive(t *testing.T) {
	for _, v := range []string{"-1", "0", "-0", "null"} {
		path := filepath.Join(t.TempDir(), "costs.json")
		body := fmt.Sprintf(`{"version":%d,"entries":{"p2|b1|conv":5.5,"nas|p2|C8|b16":%s}}`, costCacheVersion, v)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := LoadCostCache(path)
		if err == nil {
			t.Fatalf("entry %s loaded: %v", v, c.Snapshot())
		}
		if !strings.Contains(err.Error(), `"nas|p2|C8|b16"`) {
			t.Fatalf("entry %s: error %q does not name the key", v, err)
		}
	}
}

// FuzzLoadCostCache: a load either fails, or returns exactly the
// entries the file holds at the current version (none at another), and
// every one of them is a positive time.
func FuzzLoadCostCache(f *testing.F) {
	c := NewCostCache()
	c.Put("p2|b1|conv|ins=[4 40 40]|out=[8 38 38]|f=1|w=2", 1234.5)
	c.Put("nas|p2|in4x40|ws8|C8,3,1|prec=fp32|kern=default|b16", 9.75e5)
	path := filepath.Join(f.TempDir(), "seed.json")
	if err := c.Save(path); err != nil {
		f.Fatal(err)
	}
	saved, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(saved)
	for i, b := range saved {
		if strings.IndexByte(`{}[]:,"`, b) >= 0 {
			f.Add(saved[:i])
			f.Add(saved[:i+1])
		}
	}
	for _, v := range []string{"0", "-1", "null"} {
		f.Add([]byte(fmt.Sprintf(`{"version":%d,"entries":{"k":%s}}`, costCacheVersion, v)))
	}
	f.Add([]byte(fmt.Sprintf(`{"version":%d,"entries":{"k":5}}`, costCacheVersion-1)))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "costs.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := LoadCostCache(path)
		if err != nil {
			return
		}
		var file costCacheFile
		if err := json.Unmarshal(data, &file); err != nil {
			t.Fatalf("loaded a file encoding/json refuses: %v", err)
		}
		want := file.Entries
		if file.Version != costCacheVersion {
			want = nil
		}
		have := got.Snapshot()
		if len(have) != len(want) {
			t.Fatalf("loaded %d entries, the file holds %d", len(have), len(want))
		}
		for k, v := range want {
			if hv, ok := have[k]; !ok || hv != v {
				t.Fatalf("entry %q loaded as %v (%t), the file holds %v", k, hv, ok, v)
			}
			if !(v > 0) {
				t.Fatalf("entry %q = %v loaded", k, v)
			}
		}
	})
}
