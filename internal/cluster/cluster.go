// Package cluster is drainnet's cluster-mode serving layer: a front-door
// router that supervises and routes over N drainnet-serve worker
// processes, turning the single-process replica pool into a fleet that
// holds its latency SLO under overload.
//
// The pieces:
//
//   - Supervisor (worker.go): spawns each worker slot, waits for its
//     /v1/healthz readiness, respawns crashed workers with exponential
//     backoff, and propagates SIGTERM on drain so every worker finishes
//     its in-flight requests before the router exits.
//   - Router (router.go): proxies the /v1 API across ready workers with
//     least-loaded selection (live in-flight accounting + scraped
//     drainnet_queue_depth), and transparently retries idempotent
//     requests on another worker when one dies mid-flight — a worker
//     kill loses zero accepted requests.
//   - Admission control (admission.go): two priority classes —
//     interactive (/v1/detect traffic) and bulk (sweep traffic or
//     anything tagged X-Drainnet-Class: bulk). Each class has a
//     concurrency budget; the bulk budget shrinks as interactive load
//     rises, so overload sheds bulk with 429+Retry-After instead of
//     letting queues collapse.
//   - Adaptive batching (autobatch.go): a controller that reads each
//     worker's live latency quantiles from its /v1/metrics scrape and
//     retunes the worker's effective max-batch through
//     POST /v1/control/batching — latency over SLO halves it,
//     comfortable latency with queued demand grows it.
//
// Worker processes are plain drainnet-serve instances; everything the
// router needs from them is on the public /v1 surface (healthz,
// metrics, control), so the same binary serves standalone or clustered.
package cluster

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"time"

	"drainnet/internal/telemetry"
)

// Process is a supervised worker process. The production implementation
// wraps exec.Cmd; tests substitute in-process fakes with the same
// lifecycle (signal-driven drain, abrupt kill, observable exit).
type Process interface {
	// Pid identifies the process (a real OS pid for exec workers).
	Pid() int
	// Signal delivers sig (SIGTERM = drain, os.Kill = force).
	Signal(sig os.Signal) error
	// Wait blocks until the process exits. Called exactly once.
	Wait() error
}

// StartFunc launches one worker for slot id, returning the process and
// the address its HTTP API will listen on. It is called again, possibly
// returning a new address, each time the slot's worker must be respawned.
type StartFunc func(id int) (Process, string, error)

// Config configures a Router.
type Config struct {
	// Workers is the number of worker slots (default 2).
	Workers int
	// Start spawns a worker process (required). See ExecStart.
	Start StartFunc
	// Admission is the per-class concurrency policy; zero fields take
	// defaults derived from Workers.
	Admission AdmissionPolicy
	// AutoBatch configures the adaptive batching controller; the zero
	// value disables it.
	AutoBatch AutoBatchConfig
	// Retries is how many additional workers an idempotent request is
	// tried on after a transport failure (default 2).
	Retries int
	// ScrapeInterval is the worker health+metrics polling period
	// (default 250ms).
	ScrapeInterval time.Duration
	// ReadyTimeout bounds how long a freshly spawned worker may take to
	// pass its readiness probe before being killed and respawned
	// (default 120s — workers without a checkpoint train at startup).
	ReadyTimeout time.Duration
	// DrainTimeout bounds a graceful worker drain before escalating to
	// SIGKILL (default 30s).
	DrainTimeout time.Duration
	// MaxBodyBytes bounds a buffered (hence retryable) request body
	// (default 32 MiB). Larger bodies are refused with 400.
	MaxBodyBytes int64
	// Telemetry is the router's observability hub (its own registry —
	// worker registries stay per-process). Nil creates a default one.
	Telemetry *telemetry.Telemetry
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.Retries <= 0 {
		c.Retries = 2
	}
	if c.ScrapeInterval <= 0 {
		c.ScrapeInterval = 250 * time.Millisecond
	}
	if c.ReadyTimeout <= 0 {
		c.ReadyTimeout = 120 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	c.Admission = c.Admission.withDefaults(c.Workers)
	if c.Telemetry == nil {
		c.Telemetry = telemetry.NewDisabled()
	}
	return c
}

// ExecStart returns a StartFunc that spawns bin (a drainnet-serve
// binary) with baseArgs plus -addr and -worker-id for the slot. Each
// spawn picks a fresh loopback port; worker stdout/stderr pass through
// to the router's, so one log stream carries the whole fleet (workers
// tag their own lines via -worker-id).
func ExecStart(bin string, baseArgs []string) StartFunc {
	return func(id int) (Process, string, error) {
		port, err := freePort()
		if err != nil {
			return nil, "", fmt.Errorf("cluster: worker %d: %w", id, err)
		}
		addr := "127.0.0.1:" + strconv.Itoa(port)
		args := append(append([]string(nil), baseArgs...), "-addr", addr, "-worker-id", strconv.Itoa(id))
		cmd := exec.Command(bin, args...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return nil, "", fmt.Errorf("cluster: worker %d: %w", id, err)
		}
		return &execProcess{cmd: cmd}, addr, nil
	}
}

type execProcess struct{ cmd *exec.Cmd }

func (p *execProcess) Pid() int                   { return p.cmd.Process.Pid }
func (p *execProcess) Signal(sig os.Signal) error { return p.cmd.Process.Signal(sig) }
func (p *execProcess) Wait() error                { return p.cmd.Wait() }

// freePort reserves and releases an ephemeral loopback port. The tiny
// window between release and the worker's bind is acceptable for the
// single-host fleets this router manages.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}
