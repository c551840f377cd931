package main

import (
	"net"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"gridbw/internal/trace"
	"gridbw/internal/wal"
)

// The interposers of the traced pass. Each sits on a seam the stack
// already exposes (http.RoundTripper, http.Handler, wal.FS, net.Listener,
// trace.DecisionSink); untraced runs are wired without any of them.

// counters are the boundary counts of one traced pass.
type counters struct {
	roundTrips atomic.Int64 // client-side HTTP attempts
	shardTrips atomic.Int64 // router→shard HTTP attempts
	conns      atomic.Int64 // connections accepted, all listeners
	shed429    atomic.Int64
	pulls      atomic.Int64 // replication pull requests served
	pullBytes  atomic.Int64
	walBytes   atomic.Int64 // primary-side WAL bytes written
	walSyncs   atomic.Int64 // primary-side fsyncs
	events     atomic.Int64 // decision events published
	holdAborts atomic.Int64
}

// reset zeroes the counts while the topology's goroutines may still be
// adding to them: the warm-up's traffic is not part of a pass.
func (c *counters) reset() {
	for _, n := range []*atomic.Int64{
		&c.roundTrips, &c.shardTrips, &c.conns, &c.shed429, &c.pulls,
		&c.pullBytes, &c.walBytes, &c.walSyncs, &c.events, &c.holdAborts,
	} {
		n.Store(0)
	}
}

// tracingTransport times every RoundTrip under a client.
type tracingTransport struct {
	next http.RoundTripper
	tr   *tracer
	name string
	n    *atomic.Int64
}

func (t *tracingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := t.next.RoundTrip(r)
	t.tr.add(t.name, r.URL.Host, t0, time.Now())
	t.n.Add(1)
	return resp, err
}

// routeName maps a request onto the handler span it belongs to.
func routeName(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/v1/requests" && r.Method == http.MethodPost:
		return "submit"
	case p == "/v1/batch":
		return "batch"
	case strings.HasPrefix(p, "/v1/requests/") && r.Method == http.MethodDelete:
		return "cancel"
	case strings.HasPrefix(p, "/v1/requests/"):
		return "lookup"
	case p == "/v1/reserve":
		return "reserve"
	case p == "/v1/confirm":
		return "confirm"
	case p == "/v1/abort":
		return "abort"
	case p == "/v1/replication/pull":
		return "pull"
	}
	return "other"
}

// countingWriter records the status and size of a response.
type countingWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *countingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// traceHandler wraps a node's handler: one span per request, named
// "<prefix>.<route>", plus the shed/pull/abort counts.
func traceHandler(next http.Handler, tr *tracer, cnt *counters, prefix, node string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := routeName(r)
		cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		next.ServeHTTP(cw, r)
		tr.add(prefix+"."+route, node, t0, time.Now())
		switch {
		case cw.status == http.StatusTooManyRequests:
			cnt.shed429.Add(1)
		case route == "pull":
			cnt.pulls.Add(1)
			cnt.pullBytes.Add(cw.bytes)
		case route == "abort":
			cnt.holdAborts.Add(1)
		}
	})
}

// countingListener counts accepted connections.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.n.Add(1)
	}
	return c, err
}

// tracingFS is wal.OSFS with Write and Sync of every opened file timed.
// primary marks the node whose bytes and fsyncs feed the per-admit counts.
type tracingFS struct {
	wal.OSFS
	tr      *tracer
	cnt     *counters
	node    string
	primary bool
}

func (fs *tracingFS) wrap(f wal.File, err error) (wal.File, error) {
	if err != nil {
		return nil, err
	}
	return &tracingFile{File: f, fs: fs}, nil
}

func (fs *tracingFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	return fs.wrap(fs.OSFS.OpenFile(name, flag, perm))
}

func (fs *tracingFS) Create(name string) (wal.File, error) {
	return fs.wrap(fs.OSFS.Create(name))
}

type tracingFile struct {
	wal.File
	fs *tracingFS
}

func (f *tracingFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := f.File.Write(p)
	f.fs.tr.add("wal.write", f.fs.node, t0, time.Now())
	if f.fs.primary {
		f.fs.cnt.walBytes.Add(int64(n))
	}
	return n, err
}

func (f *tracingFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	f.fs.tr.add("wal.sync", f.fs.node, t0, time.Now())
	if f.fs.primary {
		f.fs.cnt.walSyncs.Add(1)
	}
	return err
}

// publishSink timestamps the point where the core publishes a decision
// event (trace.DecisionSink), as a zero-length span.
type publishSink struct {
	tr   *tracer
	cnt  *counters
	node string
}

func (s *publishSink) Append(ev trace.Event) error {
	now := time.Now()
	s.tr.add("core.publish."+ev.Kind, s.node, now, now)
	s.cnt.events.Add(1)
	return nil
}
