// Package remote is the net/rpc transport the cluster runs on. The
// paper emphasizes that "PartMiner is inherently parallel in nature"
// (§1): after Phase 1 the k units are independent, so they can be mined
// on different machines and only the (small) frequent-pattern sets travel
// back for the merge-join. What travels, and who mines it, is
// internal/cluster's business (the Shard and Coordinator services); this
// package only moves the calls: Conn is the client side — lazy dial,
// context-bounded calls, one transparent redial of a dropped session —
// and Server is the accept loop both cluster services listen with.
package remote

import (
	"context"
	"fmt"
	"net"
	"net/rpc"
	"sync"

	"partminer/internal/exec"
)

// Server is a net/rpc accept loop that remembers its live connections so
// they can be severed. The zero value is ready to use.
type Server struct {
	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// Serve registers rcvr as the RPC service name and serves every
// connection l accepts until the listener closes.
func (s *Server) Serve(l net.Listener, name string, rcvr any) error {
	srv := rpc.NewServer()
	if err := srv.RegisterName(name, rcvr); err != nil {
		return err
	}
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.conns == nil {
			s.conns = make(map[net.Conn]struct{})
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go func() {
			srv.ServeConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Sever drops every live connection. Combined with closing the listener
// this is a process kill as the peer sees it: in-flight calls fail at the
// connection level and redials are refused. Tests use it to simulate
// SIGKILL inside one process.
func (s *Server) Sever() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for conn := range s.conns {
		conn.Close()
	}
}

// Conn is one managed worker connection: it dials lazily, and a call
// that fails at the connection level (rpc.ErrShutdown after the worker
// restarts, a dropped TCP session, a gob decode error) discards the dead
// client so the next use redials instead of failing forever. Successful
// redials are counted as "remote.redial". Safe for concurrent use —
// net/rpc clients multiplex concurrent calls over one connection.
type Conn struct {
	// Addr is the worker's "host:port" address.
	Addr string

	mu        sync.Mutex
	client    *rpc.Client
	connected bool // a dial has succeeded at least once (redial accounting)
}

// NewConn returns a lazily dialing connection to addr; the first Call
// establishes the TCP session.
func NewConn(addr string) *Conn { return &Conn{Addr: addr} }

// DialConn eagerly connects to addr, so unreachable workers fail fast.
func DialConn(addr string) (*Conn, error) {
	c := NewConn(addr)
	if _, err := c.get(nil); err != nil {
		return nil, err
	}
	return c, nil
}

// get returns the live client, dialing when none is held. A successful
// dial after a previous session counts as remote.redial on o.
func (c *Conn) get(o exec.Observer) (*rpc.Client, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.client != nil {
		return c.client, nil
	}
	client, err := rpc.Dial("tcp", c.Addr)
	if err != nil {
		return nil, fmt.Errorf("remote: dial %s: %w", c.Addr, err)
	}
	if c.connected {
		exec.Count(o, "remote.redial", 1)
	}
	c.client = client
	c.connected = true
	return client, nil
}

// drop discards client if it is still the held one, so exactly one
// goroutine pays for the close and concurrent callers do not discard a
// fresh replacement.
func (c *Conn) drop(client *rpc.Client) {
	c.mu.Lock()
	if c.client == client {
		c.client = nil
	}
	c.mu.Unlock()
	client.Close()
}

// Close releases the held connection (a later Call would redial).
func (c *Conn) Close() error {
	c.mu.Lock()
	client := c.client
	c.client = nil
	c.mu.Unlock()
	if client == nil {
		return nil
	}
	return client.Close()
}

// connError reports whether an RPC error is connection-level (the
// session is unusable and should be redialed) rather than a service
// error the worker itself returned.
func connError(err error) bool {
	if err == nil {
		return false
	}
	_, serviceErr := err.(rpc.ServerError)
	return !serviceErr
}

// Call runs one RPC under ctx: cancellation abandons the in-flight call,
// a connection-level failure redials once and retries, and every attempt
// is counted as "remote.rpc" on o. Service errors (the worker ran the
// method and returned an error) are returned as-is without touching the
// session.
func (c *Conn) Call(ctx context.Context, method string, args, reply any, o exec.Observer) error {
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		client, err := c.get(o)
		if err != nil {
			// Dialing failed; nothing held to drop, and a second dial in
			// the same call would fail identically.
			return err
		}
		exec.Count(o, "remote.rpc", 1)
		done := client.Go(method, args, reply, make(chan *rpc.Call, 1))
		select {
		case <-ctx.Done():
			// net/rpc cannot interrupt an in-flight request; the worker
			// stops on its own when the shipped deadline expires.
			return ctx.Err()
		case call := <-done.Done:
			if call.Error == nil {
				return nil
			}
			if !connError(call.Error) {
				return call.Error
			}
			c.drop(client)
			lastErr = call.Error
		}
	}
	return lastErr
}
