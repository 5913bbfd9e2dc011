package model

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// CostCache is a serializable memo of conv-kernel (and NAS candidate)
// measurements, in nanoseconds. Keys embed GOMAXPROCS, so one file is
// valid across pool configurations; a cache loaded on a machine with
// different timings simply prices from the recorded numbers (use a
// per-host cache file for fidelity).
//
// The cache is safe for concurrent use by multiple goroutines (every
// access goes through Get/Put/Len/Snapshot, guarded by an in-process
// mutex) and by multiple processes sharing one file: Save takes an
// exclusive file lock on a .lock sidecar, merges the on-disk entries
// into the in-memory ones (the writer's own entry wins per key — it is
// the newest measurement this process owns), and replaces the file with
// an atomic tmp+rename. Two processes measuring disjoint operators and
// saving concurrently therefore lose nothing.
type CostCache struct {
	// Version guards the key format; a mismatched file loads as empty.
	Version int                `json:"version"`
	Entries map[string]float64 `json:"entries"`

	mu sync.RWMutex
}

// costCacheVersion bumps when the key format or measurement protocol
// changes incompatibly. Version 2 dropped the execution regime from
// operator keys and times NAS latencies on the executor that serves;
// version 3 keys each conv measurement on the geometry and kernel the
// autotuner varies.
const costCacheVersion = 3

// NewCostCache returns an empty cache.
func NewCostCache() *CostCache {
	return &CostCache{Version: costCacheVersion, Entries: make(map[string]float64)}
}

// Get returns the memoized measurement for key.
func (c *CostCache) Get(key string) (float64, bool) {
	c.mu.RLock()
	v, ok := c.Entries[key]
	c.mu.RUnlock()
	return v, ok
}

// Put records one measurement. Concurrent writers of the same key
// overwrite each other, which is benign: both values are fresh
// measurements of the same operator.
func (c *CostCache) Put(key string, v float64) {
	c.mu.Lock()
	c.Entries[key] = v
	c.mu.Unlock()
}

// Len reports the number of memoized measurements.
func (c *CostCache) Len() int {
	c.mu.RLock()
	n := len(c.Entries)
	c.mu.RUnlock()
	return n
}

// Snapshot returns a copy of the entries at one instant.
func (c *CostCache) Snapshot() map[string]float64 {
	c.mu.RLock()
	out := make(map[string]float64, len(c.Entries))
	for k, v := range c.Entries {
		out[k] = v
	}
	c.mu.RUnlock()
	return out
}

// costCacheFile is the serialized form — the cache without its lock.
type costCacheFile struct {
	Version int                `json:"version"`
	Entries map[string]float64 `json:"entries"`
}

// Save writes the cache as JSON, merging with whatever another process
// saved to the same path since this cache was loaded: disk-only keys are
// preserved, conflicting keys keep this writer's value. The write is a
// tmp file + rename (readers never observe a partial file) under an
// exclusive lock on path+".lock" (concurrent savers serialize, so
// neither's new entries are lost).
func (c *CostCache) Save(path string) error {
	unlock, err := lockFile(path + ".lock")
	if err != nil {
		return fmt.Errorf("model: cost cache lock: %w", err)
	}
	defer unlock()

	merged := c.Snapshot()
	if disk, err := LoadCostCache(path); err == nil {
		for k, v := range disk.Entries {
			if _, ours := merged[k]; !ours {
				merged[k] = v
			}
		}
	}
	c.mu.RLock()
	version := c.Version
	c.mu.RUnlock()
	data, err := json.MarshalIndent(costCacheFile{Version: version, Entries: merged}, "", "  ")
	if err != nil {
		return err
	}
	tmp := fmt.Sprintf("%s.tmp.%d", path, os.Getpid())
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// LoadCostCache reads a cache written by Save. A missing file or a
// version mismatch yields an empty cache and no error, so callers can
// unconditionally load-measure-save. An entry that is not a positive
// time is an error naming its key: ranked as the cheapest choice, it
// would win every comparison it entered.
func LoadCostCache(path string) (*CostCache, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return NewCostCache(), nil
		}
		return nil, err
	}
	var cf costCacheFile
	if err := json.Unmarshal(data, &cf); err != nil {
		return nil, fmt.Errorf("model: cost cache %s: %w", path, err)
	}
	if cf.Version != costCacheVersion || cf.Entries == nil {
		return NewCostCache(), nil
	}
	for k, v := range cf.Entries {
		if !(v > 0) {
			return nil, fmt.Errorf("model: cost cache %s: entry %q = %v is not a positive time", path, k, v)
		}
	}
	return &CostCache{Version: cf.Version, Entries: cf.Entries}, nil
}

// TimeTrimmed returns the steady-state wall-clock cost in ns of one
// iteration of loop (which runs its body reps times): warmup discarded
// runs, then samples timed runs — each stretched above clock granularity
// to at least minSampleNs by repetition — whose trimmed mean (top and
// bottom quarter dropped, rejecting scheduler noise in both tails) is
// the cost.
func TimeTrimmed(loop func(reps int), warmup, samples int, minSampleNs float64) float64 {
	run := func(reps int) float64 {
		start := time.Now()
		loop(reps)
		return float64(time.Since(start)) / float64(reps)
	}
	for i := 0; i < warmup; i++ {
		run(1)
	}
	reps := 1
	if probe := run(1); probe < minSampleNs {
		if probe <= 0 {
			probe = 1
		}
		reps = int(minSampleNs/probe) + 1
	}
	s := make([]float64, samples)
	for i := range s {
		s[i] = run(reps)
	}
	sort.Float64s(s)
	trim := len(s) / 4
	kept := s[trim : len(s)-trim]
	total := 0.0
	for _, v := range kept {
		total += v
	}
	return total / float64(len(kept))
}
