package callplane

import (
	"bufio"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Streams is the set of connections a process took over from net/http: the
// replication streams of gridbw-repl/1 and the call streams of
// gridbw-call/1. Both are upgraded, watched and ended by the one helper
// here. The HTTP server forgets a connection once it is taken over, so
// Close is the only thing that ends them: it refuses new ones, hangs up
// every open one and waits for each goroutine a stream started. The zero
// value is ready to use.
type Streams struct {
	mu     sync.Mutex
	closed bool
	stop   chan struct{} // made by the first Upgrade, closed by Close
	wg     sync.WaitGroup
}

// WantsUpgrade reports whether r offers to upgrade its connection to proto.
func WantsUpgrade(r *http.Request, proto string) bool {
	if !strings.EqualFold(r.Header.Get("Upgrade"), proto) {
		return false
	}
	for _, v := range r.Header.Values("Connection") {
		for v != "" {
			var tok string
			tok, v, _ = strings.Cut(v, ",")
			if strings.EqualFold(strings.TrimSpace(tok), "upgrade") {
				return true
			}
		}
	}
	return false
}

// Upgrade takes over r's connection for proto, when r offered it, the set
// is still open and w can be taken over. Nothing has been written yet: the
// 101 goes out in front of the stream's first frame. writeIdle bounds each
// write: a peer that takes none of a frame for that long ends the stream.
// false leaves w to answer over plain HTTP — a writer that hides Hijack (a
// tracing or metrics middleware) lands there, and so does a request that
// did not offer.
func (ss *Streams) Upgrade(w http.ResponseWriter, r *http.Request, proto string, writeIdle time.Duration) (*Stream, bool) {
	if !WantsUpgrade(r, proto) {
		return nil, false
	}
	ss.mu.Lock()
	if ss.closed {
		ss.mu.Unlock()
		return nil, false
	}
	if ss.stop == nil {
		ss.stop = make(chan struct{})
	}
	stop := ss.stop
	ss.wg.Add(1)
	ss.mu.Unlock()
	conn, brw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		ss.wg.Done()
		return nil, false
	}
	// net/http may have armed deadlines for the request; the stream keeps
	// its own.
	conn.SetDeadline(time.Time{})
	st := &Stream{
		conn: conn, reader: brw.Reader, set: ss, quit: make(chan struct{}), writeIdle: writeIdle,
		hello: []byte("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + proto + "\r\n\r\n"),
	}
	// The stop watcher: Close hangs the stream up.
	st.Go(func() {
		select {
		case <-stop:
			st.HangUp()
		case <-st.quit:
		}
	})
	return st, true
}

// Close refuses new streams, hangs up every open one and waits for all of
// their goroutines.
func (ss *Streams) Close() {
	ss.mu.Lock()
	if !ss.closed && ss.stop != nil {
		close(ss.stop)
	}
	ss.closed = true
	ss.mu.Unlock()
	ss.wg.Wait()
}

// A Stream is one connection taken over by Upgrade. Its owner (the
// goroutine Upgrade returned to) reads from it and ends with End, or hands
// the stream to goroutines started with Go and calls release; writes may
// come from any goroutine.
type Stream struct {
	conn      net.Conn
	reader    *bufio.Reader
	set       *Streams
	quit      chan struct{}
	once      sync.Once
	writeIdle time.Duration

	wmu   sync.Mutex
	hello []byte // the 101, sent in front of the first frame
	wbuf  []byte
	// wdead and rdead are the write and read deadlines last armed: moving
	// one costs a timer update in the poller, so each moves once a second
	// at most, which keeps its bound within a second of what it says.
	wdead, rdead time.Time
}

// Go runs f on a goroutine that Streams.Close waits for.
func (st *Stream) Go(f func()) {
	st.set.wg.Add(1)
	go func() {
		defer st.set.wg.Done()
		f()
	}()
}

// HangUp closes the connection; every read and write on it fails from here
// on. Safe to call more than once, from anywhere.
func (st *Stream) HangUp() {
	st.once.Do(func() {
		close(st.quit)
		st.conn.Close()
	})
}

// End hangs up and releases the owner's hold on the set; the owner calls it
// once, when it stops reading.
func (st *Stream) End() {
	st.HangUp()
	st.release()
}

// release gives up the owner's hold on the set without hanging up, once
// goroutines started with Go have taken the stream over.
func (st *Stream) release() { st.set.wg.Done() }

// Done is closed once the stream hung up.
func (st *Stream) Done() <-chan struct{} { return st.quit }

// Read reads what the peer sent; one goroutine at a time may read.
func (st *Stream) Read(p []byte) (int, error) { return st.reader.Read(p) }

// Write sends one frame in one piece — head, which may be nil, then body —
// behind the 101 if nothing went out yet. head is copied, never kept, so a
// caller's head array stays on its stack. A peer that takes none of it
// within the stream's write bound — it stopped reading — ends the stream.
func (st *Stream) Write(head, body []byte) error {
	st.wmu.Lock()
	defer st.wmu.Unlock()
	buf := body
	if head != nil || st.hello != nil {
		buf = append(append(append(st.wbuf[:0], st.hello...), head...), body...)
		st.hello = nil
		if cap(buf) <= 64<<10 {
			st.wbuf = buf // a rare huge answer should not stay pinned
		}
	}
	if d := time.Now().Add(st.writeIdle); d.Sub(st.wdead) > time.Second {
		st.wdead = d
		st.conn.SetWriteDeadline(d)
	}
	if _, err := st.conn.Write(buf); err != nil {
		st.HangUp()
		return err
	}
	return nil
}

// readWithin bounds the reads from here on to d from now, give or take a
// second. One goroutine at a time may read, and only it may call this.
func (st *Stream) readWithin(d time.Duration) {
	if t := time.Now().Add(d); t.Sub(st.rdead) > time.Second {
		st.rdead = t
		st.conn.SetReadDeadline(t)
	}
}
