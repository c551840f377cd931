package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"gridbw/internal/router"
	"gridbw/internal/server"
	"gridbw/internal/server/client"
	"gridbw/internal/units"
	"gridbw/internal/wal"
)

// vclock is the harness-owned virtual clock every daemon of a topology
// reads (server.Config.Clock). The generator advances it by each
// submission's inter-arrival gap, so the paper's offered load is a pinned
// constant no matter how fast the machine decides.
type vclock struct{ ns atomic.Int64 }

func (c *vclock) now() time.Time { return time.Unix(0, c.ns.Load()) }

// seconds is the service time every daemon booted at clock zero reports.
func (c *vclock) seconds() float64 { return float64(c.ns.Load()) / 1e9 }

// advance moves the clock by gap seconds and returns the new service time.
func (c *vclock) advance(gap float64) float64 {
	return float64(c.ns.Add(int64(gap*1e9))) / 1e9
}

// node is one daemon (or the router) served the way cmd/gridbwd serves
// it: handler on a 127.0.0.1:0 TCP listener.
type node struct {
	name   string
	srv    *server.Server // nil for the router
	wal    *wal.Log
	walDir string
	hs     *http.Server
	done   chan struct{} // closed when Serve returned
	url    string
}

// stack is a booted topology plus the client wiring that drives it.
type stack struct {
	kind    topoKind
	w       *workloadSpec
	clock   *vclock
	nodes   []*node // write-accepting daemons: the single daemon, the shards, or the primary
	follows []*node
	rt      *router.Router
	rtNode  *node
	dir     string // WAL parent directory; empty when the workload has no WAL

	transport *http.Transport
	client    *client.Client
}

// entry is the URL clients talk to.
func (t *stack) entry() string {
	if t.rtNode != nil {
		return t.rtNode.url
	}
	return t.nodes[0].url
}

// servers lists every daemon, followers included.
func (t *stack) servers() []*node { return append(append([]*node(nil), t.nodes...), t.follows...) }

// traceHooks is the traced pass's interposer set; nil boots the plain
// stack (OSFS, bare handlers, bare transports).
type traceHooks struct {
	tr  *tracer
	cnt *counters
}

func serve(name string, h http.Handler, hooks *traceHooks) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{name: name, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	if hooks != nil {
		ln = countingListener{Listener: ln, n: &hooks.cnt.conns}
	}
	n.hs = &http.Server{Handler: h}
	go func() {
		defer close(n.done)
		_ = n.hs.Serve(ln) // returns ErrServerClosed on Close
	}()
	return n, nil
}

// bootDaemon opens the node's WAL (when the workload has one), builds the
// server and serves its handler. cfg carries the role-specific fields.
func (t *stack) bootDaemon(name string, cfg server.Config, hooks *traceHooks, primary bool) (*node, error) {
	w := t.w
	caps := make([]units.Bandwidth, w.points)
	for i := range caps {
		caps[i] = w.capacity
	}
	cfg.Ingress, cfg.Egress, cfg.Policy = caps, caps, w.policy
	cfg.Clock = t.clock.now
	var l *wal.Log
	dir := ""
	if w.wal {
		dir = filepath.Join(t.dir, name)
		opt := wal.Options{Policy: wal.SyncInterval}
		if hooks != nil {
			opt.FS = &tracingFS{tr: hooks.tr, cnt: hooks.cnt, node: name, primary: primary}
		}
		var err error
		if l, _, err = wal.Open(dir, opt); err != nil {
			return nil, err
		}
		cfg.WAL = l
	}
	if hooks != nil && primary {
		cfg.Decisions = &publishSink{tr: hooks.tr, cnt: hooks.cnt, node: name}
	}
	srv, err := server.New(cfg)
	if err != nil {
		if l != nil {
			l.Close()
		}
		return nil, err
	}
	h := srv.Handler()
	if hooks != nil {
		h = traceHandler(h, hooks.tr, hooks.cnt, "http", name)
	}
	n, err := serve(name, h, hooks)
	if err != nil {
		srv.Close()
		if l != nil {
			l.Close()
		}
		return nil, err
	}
	n.srv, n.wal, n.walDir = srv, l, dir
	return n, nil
}

// boot brings up the workload's topology on a fresh virtual clock. dir is
// the parent of the WAL directories and is created here.
func boot(w *workloadSpec, kind topoKind, dir string, hooks *traceHooks) (*stack, error) {
	t := &stack{kind: kind, w: w, clock: &vclock{}}
	if w.wal {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		t.dir = dir
	}
	ok := false
	defer func() {
		if !ok {
			t.close()
		}
	}()
	switch kind {
	case topoSingle:
		n, err := t.bootDaemon("n0", server.Config{}, hooks, true)
		if err != nil {
			return nil, err
		}
		t.nodes = append(t.nodes, n)
	case topoRouted:
		var shards []router.ShardConfig
		for _, name := range []string{"s0", "s1"} {
			n, err := t.bootDaemon(name, server.Config{}, hooks, true)
			if err != nil {
				return nil, err
			}
			t.nodes = append(t.nodes, n)
			shards = append(shards, router.ShardConfig{Name: name, Endpoints: []string{n.url}})
		}
		// The router's default transport, with the shard round trips
		// timed in the traced pass. Holds get the longest TTL a shard
		// grants: it is measured on the virtual clock, which other
		// in-flight operations keep advancing.
		rtTransport := http.RoundTripper(&http.Transport{
			MaxIdleConns: 1024, MaxIdleConnsPerHost: 256, IdleConnTimeout: 90 * time.Second,
		})
		if hooks != nil {
			rtTransport = &tracingTransport{next: rtTransport, tr: hooks.tr, name: "router.shardtrip", n: &hooks.cnt.shardTrips}
		}
		rt, err := router.New(router.Config{
			Shards: shards, Seed: 1, HoldTTL: 60 * time.Second,
			HTTPClient: &http.Client{Transport: rtTransport},
		})
		if err != nil {
			return nil, err
		}
		h := rt.Handler()
		if hooks != nil {
			h = traceHandler(h, hooks.tr, hooks.cnt, "router", "rt")
		}
		n, err := serve("rt", h, hooks)
		if err != nil {
			return nil, err
		}
		t.rt, t.rtNode = rt, n
	case topoQuorum:
		p, err := t.bootDaemon("n0", server.Config{
			ReplID: "n0", SyncMode: "quorum", SyncAcks: 1, SyncTimeout: 10 * time.Second,
		}, hooks, true)
		if err != nil {
			return nil, err
		}
		t.nodes = append(t.nodes, p)
		for _, name := range []string{"n1", "n2"} {
			f, err := t.bootDaemon(name, server.Config{Follow: p.url, ReplID: name}, hooks, false)
			if err != nil {
				return nil, err
			}
			t.follows = append(t.follows, f)
			if err := f.srv.StartFollowing(); err != nil {
				return nil, err
			}
		}
	}
	// Two keep-alive connections shared by the client goroutines.
	t.transport = &http.Transport{MaxIdleConnsPerHost: 2, MaxConnsPerHost: 2, IdleConnTimeout: 90 * time.Second}
	var rtr http.RoundTripper = t.transport
	if hooks != nil {
		rtr = &tracingTransport{next: rtr, tr: hooks.tr, name: "transport.roundtrip", n: &hooks.cnt.roundTrips}
	}
	t.client = client.NewWithOptions(t.entry(), &http.Client{Transport: rtr, Timeout: 30 * time.Second}, client.Options{})
	ok = true
	return t, nil
}

// close stops every process-like part of the topology and waits for it:
// followers first (their pull loops hold long-polls on the primary), then
// listeners, servers and WALs. The WAL directories stay for the checks;
// removeDirs deletes them.
func (t *stack) close() {
	if t.transport != nil {
		t.transport.CloseIdleConnections()
	}
	for _, f := range t.follows {
		f.srv.Close()
	}
	all := t.servers()
	if t.rtNode != nil {
		all = append(all, t.rtNode)
	}
	for _, n := range all {
		n.hs.Close()
		<-n.done
	}
	for _, n := range t.servers() {
		n.srv.Close()
		if n.wal != nil {
			n.wal.Close()
			n.wal = nil
		}
	}
}

func (t *stack) removeDirs() {
	if t.dir != "" {
		os.RemoveAll(t.dir)
	}
}

// quiesce waits until every follower's WAL reached the primary's append
// frontier — the "no acked decision is missing anywhere" check of the
// quorum workload.
func (t *stack) quiesce(timeout time.Duration) error {
	if len(t.follows) == 0 {
		return nil
	}
	end := t.nodes[0].wal.End()
	deadline := time.Now().Add(timeout)
	for {
		behind := ""
		for _, f := range t.follows {
			if f.wal.End() != end {
				behind = fmt.Sprintf("follower %s WAL at %v, primary at %v", f.name, f.wal.End(), end)
			}
		}
		if behind == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New(behind)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
