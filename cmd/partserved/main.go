// Command partserved runs PartServe: a resident mining service that
// keeps a database, its frequent-pattern set, and the feature index live
// behind an atomic snapshot, answers pattern/containment queries over
// HTTP while folding graph updates in through IncPartMiner.
//
//	partserved -minsup 0.05 -addr 127.0.0.1:7365 db.txt
//	curl localhost:7365/v1/patterns?k=5
//	curl -X POST --data-binary @query.txt localhost:7365/v1/contains
//	curl -X POST -d '{"ops":[{"op":"relabel_vertex","tid":3,"u":0,"label":9}]}' \
//	     localhost:7365/v1/update
//
// With -snapshot the service persists every published snapshot (write to
// a temp file, then rename); -restore warm-starts from that file instead
// of mining from scratch.
//
// With -cluster-addr the service becomes a cluster coordinator: partition
// units are mined on partworker processes that join over RPC (unit i on
// the i-th worker in -id order), published snapshots are replicated to
// -replicas workers, and /v1/cluster reports the fleet. A worker that
// misses heartbeats loses its units to the next live worker in that
// order; an empty or dead fleet degrades to local mining, never to
// failure.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"partminer/internal/cluster"
	"partminer/internal/core"
	"partminer/internal/graph"
	"partminer/internal/partition"
	"partminer/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7365", "listen address (use :0 for an ephemeral port)")
	portFile := flag.String("portfile", "", "write the bound address to this file once listening (for scripts)")
	minsup := flag.Float64("minsup", 0.04, "minimum support as a fraction of the database (0.04 = 4%), or an absolute count when >= 1")
	k := flag.Int("k", 2, "number of units")
	maxEdges := flag.Int("maxedges", 0, "bound on pattern size (0 = unbounded)")
	envelope := flag.Int("envelope", 0, "growth envelope: unit miners and inner merges stop at this many edges and the root merge-join alone continues to -maxedges (0 there = unbounded); 0 mines every size in the units (-k > 1)")
	parallel := flag.Bool("parallel", false, "mine units in parallel, at most GOMAXPROCS at once")
	criteria := flag.String("criteria", "partition3", "partitioning strategy: "+strings.Join(partition.Names(), ", "))
	snapshotPath := flag.String("snapshot", "", "persist every published snapshot to this file (atomic rename)")
	restore := flag.Bool("restore", false, "warm-start from the -snapshot file instead of mining the database argument")
	clusterAddr := flag.String("cluster-addr", "", "coordinator RPC listen address for partworker fleets (empty = single-node)")
	clusterPortFile := flag.String("cluster-portfile", "", "write the coordinator's bound RPC address to this file (for scripts)")
	replicas := flag.Int("replicas", 0, "workers each published snapshot is replicated to (0 = 1)")
	clusterHeartbeat := flag.Duration("cluster-heartbeat", 0, "expected worker heartbeat period (0 = 2s default)")
	clusterMisses := flag.Int("cluster-misses", 0, "missed heartbeat intervals before a worker is declared dead (0 = 3)")
	clusterWait := flag.Int("cluster-wait", 0, "wait for this many workers to register before the initial mine (0 = don't wait)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof profiling endpoints on this address (off when empty)")
	slowThreshold := flag.Duration("slow-threshold", 0, "journal operations slower than this to /v1/debug/slow (0 = 100ms default, negative disables)")
	slowLogSize := flag.Int("slowlog", 0, "slow-operation journal capacity (0 = 64 default)")
	flag.Parse()

	runID := fmt.Sprintf("serve-%d-%d", os.Getpid(), time.Now().Unix())
	log := slog.New(slog.NewTextHandler(os.Stderr, nil)).With("run_id", runID)

	bis, err := partition.ByName(*criteria)
	if err != nil {
		fatal(err)
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	cfg := server.Config{
		Mine:          core.Options{K: *k, MaxEdges: *maxEdges, GrowthEnvelope: *envelope, Parallel: *parallel, Bisector: bis},
		Logger:        log,
		SlowThreshold: *slowThreshold,
		SlowLogSize:   *slowLogSize,
	}
	if *snapshotPath != "" {
		path := *snapshotPath
		cfg.OnSwap = func(snap *server.Snapshot) {
			if err := saveSnapshot(path, snap); err != nil {
				log.Error("snapshot save failed", "err", err)
			}
		}
	}

	// Coordinator mode: expose the membership RPC service and hand the
	// coordinator to the server, which shards unit mining over whatever
	// fleet joins and replicates published snapshots to it.
	var coord *cluster.Coordinator
	if *clusterAddr != "" {
		coord = cluster.NewCoordinator(cluster.Config{
			Replicas:          *replicas,
			HeartbeatInterval: *clusterHeartbeat,
			MaxMissed:         *clusterMisses,
		})
		cln, err := net.Listen("tcp", *clusterAddr)
		if err != nil {
			fatal(err)
		}
		defer cln.Close()
		if *clusterPortFile != "" {
			if err := os.WriteFile(*clusterPortFile, []byte(cln.Addr().String()), 0o644); err != nil {
				fatal(err)
			}
		}
		go func() {
			if err := coord.Serve(cln); err != nil && ctx.Err() == nil {
				log.Error("coordinator RPC server exited", "err", err)
			}
		}()
		log.Info("cluster coordinator listening", "addr", cln.Addr().String())
		if *clusterWait > 0 {
			waitDeadline := time.Now().Add(60 * time.Second)
			for coord.AliveMembers() < *clusterWait {
				if ctx.Err() != nil {
					return
				}
				if time.Now().After(waitDeadline) {
					fatal(fmt.Errorf("timed out waiting for %d workers (%d joined)", *clusterWait, coord.AliveMembers()))
				}
				time.Sleep(50 * time.Millisecond)
			}
			log.Info("cluster fleet ready", "workers", coord.AliveMembers())
		}
		cfg.Cluster = coord
		defer coord.Close()
	}

	// Opt-in profiling listener, separate from the API address so the
	// debug surface is never exposed by accident.
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fatal(err)
		}
		log.Info("pprof listening", "addr", dln.Addr().String())
		go func() {
			if err := http.Serve(dln, dmux); err != nil {
				log.Error("pprof server exited", "err", err)
			}
		}()
	}

	var srv *server.Server
	start := time.Now()
	if *restore {
		if *snapshotPath == "" {
			fatal(fmt.Errorf("-restore requires -snapshot"))
		}
		f, err := os.Open(*snapshotPath)
		if err != nil {
			fatal(err)
		}
		db, res, err := core.LoadSnapshot(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		log.Info("restored snapshot", "graphs", len(db), "patterns", len(res.Patterns), "path", *snapshotPath)
		srv, err = server.Restore(ctx, db, res, cfg)
		if err != nil {
			fatal(err)
		}
	} else {
		if flag.NArg() != 1 {
			fatal(fmt.Errorf("usage: partserved [flags] <database file> (or -restore -snapshot <file>)"))
		}
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		db, err := graph.ReadDatabase(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		cfg.Mine.MinSupport = absSupport(db, *minsup)
		log.Info("database loaded", "graphs", len(db), "minsup", cfg.Mine.MinSupport)
		srv, err = server.Start(ctx, db, cfg)
		if err != nil {
			fatal(err)
		}
	}
	snap := srv.Snapshot()
	log.Info("ready", "epoch", snap.Epoch, "patterns", snap.PatternCount(),
		"boot", time.Since(start).Round(time.Millisecond))

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	if *portFile != "" {
		if err := os.WriteFile(*portFile, []byte(ln.Addr().String()), 0o644); err != nil {
			fatal(err)
		}
	}
	log.Info("listening", "addr", ln.Addr().String())

	httpSrv := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case <-ctx.Done():
		log.Info("shutting down")
	case err := <-errc:
		fatal(err)
	}

	// Graceful drain: stop accepting, finish in-flight requests, then
	// let the update loop fold whatever is already queued.
	shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Error("shutdown failed", "err", err)
	}
	srv.Close()
	// serve_smoke.sh greps for this exact phrase; keep it stable.
	log.Info("stopped at epoch", "epoch", srv.Snapshot().Epoch)
}

// saveSnapshot persists atomically: a crash mid-write must not corrupt
// the restore file.
func saveSnapshot(path string, snap *server.Snapshot) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".partserved-snap-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	// Portable strips the non-serializable miner functions, so snapshots
	// persist even when the units were mined through a cluster.
	if err := core.SaveSnapshot(tmp, snap.Res.Portable()); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

func absSupport(db graph.Database, minsup float64) int {
	if minsup >= 1 {
		return int(minsup)
	}
	sup := int(minsup * float64(len(db)))
	if sup < 1 {
		sup = 1
	}
	return sup
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "partserved:", err)
	os.Exit(1)
}
