// Command partworker runs a unit-mining worker for distributed PartMiner.
//
// A worker serves the cluster Shard service (stateless unit mining,
// snapshot replicas, replica reads) on -listen. That is all a
// coordinator with a fixed address list (partminer.DialWorkers) needs.
// With -join the worker also registers with a partserved coordinator and
// heartbeats until stopped; the coordinator places units in -id order,
// and restarting under the same -id gets back exactly the units it had
// before.
//
// -metrics-addr opens a dedicated observability listener (mirroring
// partserved -debug-addr) serving /metrics (the worker's partworker_*
// registry), /healthz, and /debug/pprof.
//
// Usage:
//
//	partworker -listen :4100
//	partworker -listen :0 -join 127.0.0.1:7400 -id worker-a -metrics-addr :0
//
// SIGINT/SIGTERM shut the worker down cleanly.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"

	"partminer/internal/cluster"
	"partminer/internal/obs"
)

func main() {
	listen := flag.String("listen", ":4100", "address to listen on (use :0 for an ephemeral port)")
	portFile := flag.String("portfile", "", "write the bound address to this file once listening (for scripts)")
	join := flag.String("join", "", "coordinator address to register and heartbeat with (none when empty)")
	id := flag.String("id", "", "stable identity at the coordinator, which places units in id order (default: worker-<pid>)")
	advertise := flag.String("advertise", "", "address advertised to the coordinator (default: the bound listener address)")
	heartbeat := flag.Duration("heartbeat", 0, "heartbeat period after -join (0 = 2s default)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /healthz and /debug/pprof on this address (off when empty)")
	metricsPortFile := flag.String("metrics-portfile", "", "write the bound metrics address to this file once listening (for scripts)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	if *portFile != "" {
		if err := os.WriteFile(*portFile, []byte(l.Addr().String()), 0o644); err != nil {
			fatal(err)
		}
	}
	// Closing the listener makes Serve's Accept return, unwinding main.
	go func() {
		<-ctx.Done()
		l.Close()
	}()

	if *id == "" {
		*id = fmt.Sprintf("worker-%d", os.Getpid())
	}
	w := cluster.NewWorker(*id)
	if err := serveMetrics(ctx, *metricsAddr, *metricsPortFile, w.Registry()); err != nil {
		fatal(err)
	}
	w.Heartbeat = *heartbeat
	w.Advertise = *advertise
	if w.Advertise == "" {
		w.Advertise = l.Addr().String()
	}
	fmt.Fprintf(os.Stderr, "partworker: %s serving shards on %s\n", *id, l.Addr())
	if *join != "" {
		if err := w.Join(*join); err != nil {
			fatal(fmt.Errorf("join %s: %w", *join, err))
		}
		fmt.Fprintf(os.Stderr, "partworker: joined %s\n", *join)
	}
	defer w.Close()
	if err := w.Serve(l); err != nil {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "partworker: shutting down")
			return
		}
		fatal(err)
	}
}

// serveMetrics opens the dedicated observability listener when addr is
// set: the registry at /metrics, a liveness probe at /healthz, and the
// pprof profiling suite at /debug/pprof. The listener closes with ctx.
func serveMetrics(ctx context.Context, addr, portFile string, registry *obs.Registry) error {
	if addr == "" {
		return nil
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", registry.Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"ok": true}`)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("metrics listener: %w", err)
	}
	if portFile != "" {
		if err := os.WriteFile(portFile, []byte(ln.Addr().String()), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "partworker: metrics on %s\n", ln.Addr())
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln) //nolint:errcheck // closed via ctx below
	go func() {
		<-ctx.Done()
		srv.Close()
	}()
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "partworker:", err)
	os.Exit(1)
}
