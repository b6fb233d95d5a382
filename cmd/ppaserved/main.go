// Command ppaserved is the PPA minimum-cost-path solver service: an
// HTTP/JSON daemon that pools warm simulator sessions, micro-batches
// requests for the same graph, and sheds load once its bounded queue
// fills (see internal/serve).
//
// Endpoints:
//
//	POST   /v1/solve  {"gen": {"gen":"connected","n":64,"seed":7}, "dests": [0,3]}
//	POST   /v1/solve  {"graph": {"n":3,"edges":[[0,1,5],[1,2,7]]}, "dests": [2]}
//	POST   /v1/allpairs            (NDJSON row stream, one per destination)
//	POST   /v1/session             (dynamic-graph session bound to graph + dests)
//	POST   /v1/session/{id}/update (weight-delta batch; re-solved rows stream)
//	GET    /v1/session/{id}/stream (long-lived NDJSON re-solve stream)
//	DELETE /v1/session/{id}        (graceful close: drain, then closed line)
//	GET    /healthz
//	GET    /metrics   (Prometheus text format)
//
// SIGINT/SIGTERM trigger a graceful drain: new work is refused with 503,
// queued and in-flight solves complete, then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"ppamcp/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "ppaserved:", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until ctx is cancelled (then drains)
// or the listener fails. When ready is non-nil the bound address is sent
// on it once the server is accepting — the hook the tests use to talk to
// an ephemeral-port instance.
func run(ctx context.Context, args []string, out io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("ppaserved", flag.ContinueOnError)
	fs.SetOutput(out)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "solver workers (0 = GOMAXPROCS)")
	physicalSide := fs.Int("physical-side", 0, "block-mapped virtualization: simulate n-vertex graphs on an m x m physical array when m divides n (0 = direct)")
	queueDepth := fs.Int("queue", 64, "admission queue depth (full queue answers 429)")
	poolCap := fs.Int("pool", 64, "idle warm sessions kept across requests")
	maxN := fs.Int("max-n", 512, "largest accepted graph (vertices)")
	maxDests := fs.Int("max-dests", 1024, "largest accepted destination list")
	maxBatch := fs.Int("max-batch", 16, "requests coalesced per session checkout")
	timeout := fs.Duration("timeout", 30*time.Second, "default per-request deadline")
	maxTimeout := fs.Duration("max-timeout", 2*time.Minute, "cap on client-requested deadlines")
	solveDelay := fs.Duration("solve-delay", 0, "emulated per-solve device occupancy for fleet benches on small hosts (0 = off)")
	drain := fs.Duration("drain", 30*time.Second, "graceful shutdown budget")
	maxSessions := fs.Int("max-sessions", 16, "concurrent dynamic-graph sessions (full answers 429)")
	sessionIdle := fs.Duration("session-idle", 2*time.Minute, "idle timeout before a session is evicted")
	maxSessionDests := fs.Int("max-session-dests", 16, "largest destination set per session")
	sessionQueue := fs.Int("session-queue", 32, "pending update batches per session (full answers 429)")
	maxUpdateBatch := fs.Int("max-update-batch", 4096, "largest weight-delta batch per update POST")
	if err := fs.Parse(args); err != nil {
		return err
	}

	svc := serve.New(serve.Config{
		Workers:        *workers,
		PhysicalSide:   *physicalSide,
		QueueDepth:     *queueDepth,
		PoolCap:        *poolCap,
		MaxVertices:    *maxN,
		MaxDests:       *maxDests,
		MaxBatch:       *maxBatch,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		SolveDelay:     *solveDelay,

		MaxSessions:        *maxSessions,
		SessionIdleTimeout: *sessionIdle,
		MaxSessionDests:    *maxSessionDests,
		SessionQueueDepth:  *sessionQueue,
		MaxUpdateBatch:     *maxUpdateBatch,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	nw := *workers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(out, "ppaserved listening on %s (workers=%d queue=%d pool=%d max-n=%d)\n",
		ln.Addr(), nw, *queueDepth, *poolCap, *maxN)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	fmt.Fprintln(out, "ppaserved: draining")
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Handlers first (they wait on workers), then the solver workers.
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("http drain: %w", err)
	}
	if err := svc.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("solver drain: %w", err)
	}
	fmt.Fprintln(out, "ppaserved: drained")
	return nil
}
