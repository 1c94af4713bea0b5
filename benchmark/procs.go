package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"partminer/internal/cluster"
	"partminer/internal/core"
	pmexec "partminer/internal/exec"
	"partminer/internal/graph"
	"partminer/internal/server"
)

// outDir is the only place a run writes: built binaries, per-run scratch
// (database file, port files, child logs) and trace.json.
var outDir = "benchmark/out"

// children tracks every live child process so that a normal return, a
// SIGINT and a panic all end with none left behind.
var children struct {
	sync.Mutex
	live map[*child]bool
}

// child is one started process; exited closes once it has been waited for.
type child struct {
	cmd    *exec.Cmd
	exited chan struct{}
}

// buildBinaries compiles partserved and partworker once per invocation
// (a no-op relink when the build cache is warm) and returns their
// directory. Build time is never part of setup_s.
func buildBinaries() (string, error) {
	if _, err := os.Stat("go.mod"); err != nil {
		return "", fmt.Errorf("run from the repository root: %w", err)
	}
	bin, err := filepath.Abs(filepath.Join(outDir, "bin"))
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/partserved", "./cmd/partworker")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build: %v\n%s", err, out)
	}
	return bin, nil
}

// spawn starts a child with its stderr in logPath. Pdeathsig makes the
// kernel kill the child should the harness itself be killed outright.
func spawn(logPath, path string, args ...string) (*child, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(path, args...)
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, exited: make(chan struct{})}
	go func() {
		cmd.Wait() //nolint:errcheck // exit status of a terminated child carries no information
		close(c.exited)
	}()
	children.Lock()
	if children.live == nil {
		children.live = make(map[*child]bool)
	}
	children.live[c] = true
	children.Unlock()
	return c, nil
}

// reap asks c to exit (SIGTERM: both binaries drain and exit 0), waits,
// and falls back to SIGKILL after ten seconds.
func reap(c *child) {
	children.Lock()
	delete(children.live, c)
	children.Unlock()
	c.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // fails only when the child has already exited
	select {
	case <-c.exited:
	case <-time.After(10 * time.Second):
		c.cmd.Process.Kill() //nolint:errcheck // as above
		<-c.exited
	}
}

// reapAll ends every child still running; safe to call at any time.
func reapAll() {
	children.Lock()
	var live []*child
	for c := range children.live {
		live = append(live, c)
	}
	children.Unlock()
	for _, c := range live {
		reap(c)
	}
}

// peakRSSMB reads a process's resident-set high-water mark (VmHWM).
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM of %d: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}

// target is a booted system under test: where it listens, how long it
// took to become ready, and how to read its memory and stop it.
type target struct {
	addr  string
	setup time.Duration // start of the first process to the first 200 from /healthz
	rssMB func() (float64, error)
	stop  func()
}

// stats fetches /v1/stats.
func (t *target) stats() (server.Stats, error) {
	var st server.Stats
	c, err := dial(t.addr)
	if err != nil {
		return st, err
	}
	defer c.close()
	status, body, err := c.do(wireRequest(http.MethodGet, "/v1/stats", nil))
	if err != nil {
		return st, err
	}
	if status != http.StatusOK {
		return st, fmt.Errorf("/v1/stats: status %d", status)
	}
	return st, json.Unmarshal(body, &st)
}

// awaitFile polls for a non-empty port file written by a child.
func awaitFile(path string, writer *child, deadline time.Time) (string, error) {
	for time.Now().Before(deadline) {
		if data, err := os.ReadFile(path); err == nil && len(data) > 0 {
			return strings.TrimSpace(string(data)), nil
		}
		select {
		case <-writer.exited:
			return "", fmt.Errorf("%s exited before writing %s (see the logs beside it)", writer.cmd.Path, path)
		case <-time.After(2 * time.Millisecond):
		}
	}
	return "", fmt.Errorf("%s never appeared (see the logs beside it)", path)
}

// awaitHealthy polls /healthz until it answers 200.
func awaitHealthy(addr string, deadline time.Time) error {
	wire := wireRequest(http.MethodGet, "/healthz", nil)
	for time.Now().Before(deadline) {
		if c, err := dial(addr); err == nil {
			status, _, err := c.do(wire)
			c.close()
			if err == nil && status == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s/healthz never answered 200", addr)
}

// bootProcesses starts the real binaries on ephemeral ports: partserved
// alone, or as coordinator with workers partworker processes. dir holds
// db.txt and receives port files and logs; round keeps repeated boots in
// one run from reading each other's port files.
func bootProcesses(bin, dir string, round int, minsup float64, workers int) (*target, error) {
	tag := fmt.Sprintf("%d", round)
	addrFile := filepath.Join(dir, "addr."+tag)
	args := []string{"-addr", "127.0.0.1:0", "-portfile", addrFile,
		"-minsup", strconv.FormatFloat(minsup, 'g', -1, 64), "-k", strconv.Itoa(unitsK)}
	caddrFile := filepath.Join(dir, "caddr."+tag)
	if workers > 0 {
		args = append(args, "-cluster-addr", "127.0.0.1:0", "-cluster-portfile", caddrFile,
			"-cluster-wait", strconv.Itoa(workers), "-replicas", "1")
	}
	args = append(args, filepath.Join(dir, "db.txt"))

	var cmds []*child
	stop := func() {
		for i := len(cmds) - 1; i >= 0; i-- {
			reap(cmds[i])
		}
	}
	deadline := time.Now().Add(90 * time.Second)
	t0 := time.Now()
	srv, err := spawn(filepath.Join(dir, "partserved."+tag+".log"), filepath.Join(bin, "partserved"), args...)
	if err != nil {
		return nil, err
	}
	cmds = append(cmds, srv)
	if workers > 0 {
		caddr, err := awaitFile(caddrFile, srv, deadline)
		if err != nil {
			stop()
			return nil, err
		}
		for w := 0; w < workers; w++ {
			id := workerID(w)
			cmd, err := spawn(filepath.Join(dir, id+"."+tag+".log"), filepath.Join(bin, "partworker"),
				"-listen", "127.0.0.1:0", "-join", caddr, "-id", id)
			if err != nil {
				stop()
				return nil, err
			}
			cmds = append(cmds, cmd)
		}
	}
	addr, err := awaitFile(addrFile, srv, deadline)
	if err == nil {
		err = awaitHealthy(addr, deadline)
	}
	if err != nil {
		stop()
		return nil, err
	}
	return &target{
		addr:  addr,
		setup: time.Since(t0),
		stop:  stop,
		rssMB: func() (float64, error) {
			total := 0.0
			for _, cmd := range cmds {
				mb, err := peakRSSMB(cmd.cmd.Process.Pid)
				if err != nil {
					return 0, err
				}
				total += mb
			}
			return total, nil
		},
	}, nil
}

// workerID names worker w. The ids are fixed so the consistent-hash ring
// places the two units the same way in every run.
func workerID(w int) string { return fmt.Sprintf("bench-w%d", w) }

// fleet is an in-process coordinator with loopback workers: real RPC
// over 127.0.0.1, no child processes. The smoke scale and the traced
// ladder use it.
type fleet struct {
	coord   *cluster.Coordinator
	closers []func()
}

func startFleet(workers int) (*fleet, error) {
	f := &fleet{coord: cluster.NewCoordinator(cluster.Config{Replicas: 1})}
	f.closers = append(f.closers, f.coord.Close)
	cl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, err
	}
	f.closers = append(f.closers, func() { cl.Close() })
	go f.coord.Serve(cl) //nolint:errcheck // returns when the listener closes
	for w := 0; w < workers; w++ {
		wk := cluster.NewWorker(workerID(w))
		wl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, err
		}
		wk.Advertise = wl.Addr().String()
		go wk.Serve(wl) //nolint:errcheck // returns when the listener closes
		f.closers = append(f.closers, func() { wk.Close(); wl.Close() })
		if err := wk.Join(cl.Addr().String()); err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

func (f *fleet) close() {
	for i := len(f.closers) - 1; i >= 0; i-- {
		f.closers[i]()
	}
}

// bootInProcess serves the same system from inside the harness: the
// server package behind a loopback HTTP listener, optionally over an
// in-process fleet. obs, when non-nil, rides server.Config.Observer.
func bootInProcess(db graph.Database, minsup float64, workers int, obs pmexec.Observer) (*target, error) {
	t0 := time.Now()
	cfg := server.Config{
		Mine:     core.Options{K: unitsK, MinSupport: absSupport(len(db), minsup)},
		Observer: obs,
	}
	var fl *fleet
	if workers > 0 {
		var err error
		if fl, err = startFleet(workers); err != nil {
			return nil, err
		}
		cfg.Cluster = fl.coord
	}
	srv, err := server.Start(context.Background(), db, cfg)
	if err != nil {
		if fl != nil {
			fl.close()
		}
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		if fl != nil {
			fl.close()
		}
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan struct{})
	go func() {
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "benchmark: in-process server:", err)
		}
		close(served)
	}()
	t := &target{
		addr: ln.Addr().String(),
		rssMB: func() (float64, error) {
			return peakRSSMB(os.Getpid())
		},
		stop: func() {
			hs.Close()
			<-served
			srv.Close()
			if fl != nil {
				fl.close()
			}
		},
	}
	if err := awaitHealthy(t.addr, time.Now().Add(10*time.Second)); err != nil {
		t.stop()
		return nil, err
	}
	t.setup = time.Since(t0)
	return t, nil
}
