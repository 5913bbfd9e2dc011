// Package provenance stamps measurement artifacts with the machine and
// source revision that produced them, so numbers from different hosts
// or commits are never compared as if they were the same run. It is
// shared by every artifact writer: the benchmark harness (benchmark/,
// its report's "provenance"), the NAS winner plan (nas.SaveWinner's
// plan.json), and the cluster load harness (cmd/drainnet-load's
// BENCH_cluster.json).
package provenance

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// Stamp identifies one bench run's origin.
type Stamp struct {
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"num_cpu"`
	// CPU is the processor model string from /proc/cpuinfo (empty on
	// platforms without it).
	CPU string `json:"cpu,omitempty"`
	// Git is `git describe --always --dirty` at bench time (empty
	// outside a git checkout).
	Git string `json:"git,omitempty"`
}

// Collect gathers the stamp for the current process. Every field
// degrades to empty rather than failing: a bench run must never abort
// because the host lacks /proc/cpuinfo or git.
func Collect() *Stamp {
	return &Stamp{
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		CPU:       cpuModel(),
		Git:       gitDescribe(),
	}
}

// cpuModel extracts the first "model name" entry from /proc/cpuinfo.
func cpuModel() string {
	buf, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(buf), "\n") {
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		if strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return ""
}

func gitDescribe() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
