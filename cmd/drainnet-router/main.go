// drainnet-router is the cluster-mode front door: it spawns and
// supervises N drainnet-serve worker processes and serves the whole /v1
// API over the fleet with least-loaded routing, priority-class admission
// control, and (optionally) adaptive batching retunes.
//
// Router-native routes (everything else proxies to a worker):
//
//	GET /healthz             router liveness
//	GET /v1/healthz          router readiness (≥1 ready worker, not draining)
//	GET /v1/cluster          fleet status: per-worker state, pid, load, tuning
//	GET /v1/cluster/metrics  router metrics, Prometheus text (?format=json)
//
// Interactive traffic (/v1/detect) is admitted ahead of bulk traffic
// (/v1/sweep, or anything tagged X-Drainnet-Class: bulk): the bulk
// budget shrinks proportionally as interactive occupancy rises, so
// overload sheds bulk with 429 + Retry-After while interactive latency
// holds. Idempotent requests that die with a worker are transparently
// retried on another worker — a worker crash loses zero accepted
// requests — and crashed workers respawn with exponential backoff.
//
// SIGTERM/SIGINT drains the cluster: the router stops admitting,
// finishes in-flight proxied requests, SIGTERMs every worker, waits for
// them to drain (SIGKILL after -drain-timeout), and exits 0 with no
// orphan processes.
//
// Usage:
//
//	drainnet-router -addr :9090 -workers 4 -serve-bin ./drainnet-serve \
//	    -worker-args "-ckpt model.ckpt -replicas 2 -max-batch 16"
//	drainnet-router -autobatch -autobatch-target-p95 250ms
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"drainnet/internal/cluster"
	"drainnet/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":9090", "router listen address")
	workers := flag.Int("workers", 2, "worker processes to supervise")
	serveBin := flag.String("serve-bin", "drainnet-serve", "path to the drainnet-serve binary")
	workerArgs := flag.String("worker-args", "", "space-separated extra args for every worker (e.g. \"-ckpt model.ckpt -replicas 2\")")
	maxInteractive := flag.Int("max-interactive", 0, "interactive admission budget (0 = 64 × workers)")
	maxBulk := flag.Int("max-bulk", 0, "bulk admission budget at idle (0 = 2 × workers); shrinks with interactive load")
	retries := flag.Int("retries", 2, "extra workers an idempotent request is tried on after a transport failure")
	scrape := flag.Duration("scrape-interval", 250*time.Millisecond, "worker health+metrics polling period")
	readyTimeout := flag.Duration("ready-timeout", 120*time.Second, "max time a spawned worker may take to become ready")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful worker drain budget before SIGKILL")
	autobatch := flag.Bool("autobatch", false, "retune workers' effective max-batch from live latency quantiles")
	abTarget := flag.Duration("autobatch-target-p95", 250*time.Millisecond, "latency SLO the adaptive batching controller steers each worker to")
	abInterval := flag.Duration("autobatch-interval", time.Second, "adaptive batching control period")
	flag.Parse()

	var args []string
	if *workerArgs != "" {
		args = strings.Fields(*workerArgs)
	}
	rt, err := cluster.New(cluster.Config{
		Workers:        *workers,
		Start:          cluster.ExecStart(*serveBin, args),
		Admission:      cluster.AdmissionPolicy{MaxInteractive: *maxInteractive, MaxBulk: *maxBulk},
		AutoBatch:      cluster.AutoBatchConfig{Enabled: *autobatch, Interval: *abInterval, TargetP95: *abTarget},
		Retries:        *retries,
		ScrapeInterval: *scrape,
		ReadyTimeout:   *readyTimeout,
		DrainTimeout:   *drainTimeout,
		Telemetry:      telemetry.NewDisabled(),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("level=info msg=router_serving addr=%s workers=%d serve_bin=%q worker_args=%q retries=%d scrape=%v autobatch=%t autobatch_target_p95=%v drain_timeout=%v\n",
		*addr, *workers, *serveBin, *workerArgs, *retries, *scrape, *autobatch, *abTarget, *drainTimeout)

	httpSrv := &http.Server{Addr: *addr, Handler: rt.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		rt.Close()
		log.Fatal(err)
	case s := <-sig:
		fmt.Printf("level=info msg=router_draining signal=%v\n", s)
	}

	// Drain order matters: stop admitting first (in-flight requests keep
	// their live workers), finish the router's HTTP exchanges, then
	// SIGTERM the fleet and wait for every worker to drain.
	rt.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout+10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	rt.Close()
	fmt.Println("level=info msg=router_drained workers_down=all")
}
