package server_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"gridbw/internal/cluster"
	"gridbw/internal/server"
	"gridbw/internal/trace"
	"gridbw/internal/units"
	"gridbw/internal/wal"
	"gridbw/internal/wire"
)

// pullBody GETs one replication batch the way a follower does (without
// the long poll) and returns the response body as it crossed the wire.
func pullBody(t *testing.T, base string, from wal.Pos) []byte {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/replication/pull?seg=%d&off=%d&max=512", base, from.Seg, from.Off))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("pull from %v: HTTP %d, %v: %s", from, resp.StatusCode, err, body)
	}
	return body
}

func segmentFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for _, name := range names {
		blob, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(name)] = blob
	}
	return out
}

// TestFollowerWALIsByteIdenticalToPrimarys: frames ship as they sit in the
// primary's WAL and are appended as received, so after a history with
// every kind of event and several segment rotations each follower's
// segment files equal the primary's byte for byte — what lets a follower
// keep its cursor when it re-points at a promoted peer.
func TestFollowerWALIsByteIdenticalToPrimarys(t *testing.T) {
	clk := &fakeClock{}
	pcfg := uniformConfig(clk)
	pwal := openSmallWAL(t)
	pcfg.WAL = pwal
	primary := newTestServer(t, pcfg)
	ts := httptest.NewServer(primary.Handler())
	defer ts.Close()

	var fwals []*wal.Log
	var followers []*server.Server
	for i := 0; i < 2; i++ {
		fcfg := uniformConfig(clk)
		fcfg.WAL = openSmallWAL(t)
		fcfg.Follow = ts.URL
		f := newTestServer(t, fcfg)
		if err := f.StartFollowing(); err != nil {
			t.Fatal(err)
		}
		fwals, followers = append(fwals, fcfg.WAL), append(followers, f)
	}

	submit := func(sub server.Submission, wantAccept bool) server.Decision {
		t.Helper()
		d, err := primary.Submit(sub)
		if err != nil || d.Accepted != wantAccept {
			t.Fatalf("submit %+v: %v %+v, want accepted=%v", sub, err, d, wantAccept)
		}
		return d
	}
	reserve := func(key string) {
		t.Helper()
		r, err := reserve1(primary, wire.HoldReserveJSON{
			Hold: key, Side: trace.HoldSideIngress, Point: 0, PeerPoint: 1,
			TTLS: 5, RelTimes: true, VolumeBytes: 1e11, MaxRateBps: 1e9, DeadlineS: 2000,
		})
		if err != nil || !r.Held {
			t.Fatalf("reserve %s: %v %+v", key, err, r)
		}
	}
	submit(server.Submission{From: 0, To: 1, Volume: 100 * units.GB, Deadline: 400, MaxRate: 1 * units.GBps}, true)
	submit(server.Submission{From: 1, To: 0, Volume: 100 * units.GB, NotBefore: 1000, Deadline: 1100, MaxRate: 1 * units.GBps}, true) // book-ahead
	submit(server.Submission{From: 0, To: 1, Volume: 1 * units.TB, Deadline: 10, MaxRate: 1 * units.GBps}, false)
	cancelled := submit(server.Submission{From: 1, To: 1, Volume: 1 * units.GB, Deadline: 500, MaxRate: 100 * units.MBps}, true)
	if _, err := primary.Cancel(cancelled.ID); err != nil {
		t.Fatal(err)
	}
	submit(server.Submission{From: 1, To: 1, Volume: 1 * units.GB, Deadline: 10, MaxRate: 1 * units.GBps}, true) // expires at 10
	reserve("h-confirmed")
	if st, err := confirm1(primary, "h-confirmed", 0); err != nil || st.State != "confirmed" {
		t.Fatalf("confirm: %v %+v", err, st)
	}
	clk.advance(20 * time.Second)
	reserve("h-aborted") // advancing the clock fires the expiry first
	if st, err := abort1(primary, "h-aborted"); err != nil || !st.Released {
		t.Fatalf("abort: %v %+v", err, st)
	}

	all, _, err := server.ReadWALEvents(pwal, wal.Pos{})
	if err != nil {
		t.Fatal(err)
	}
	kinds := make(map[string]bool)
	for _, ev := range all {
		kinds[ev.Kind] = true
	}
	for _, k := range []string{trace.EventAccept, trace.EventReject, trace.EventCancel, trace.EventExpire,
		trace.EventHoldReserve, trace.EventHoldConfirm, trace.EventHoldAbort} {
		if !kinds[k] {
			t.Fatalf("recorded history has no %s event", k)
		}
	}
	if pwal.End().Seg < 3 {
		t.Fatalf("primary WAL ended at %v, want several rotations", pwal.End())
	}

	want := segmentFiles(t, pwal.Dir())
	for i, fw := range fwals {
		fw := fw
		waitFor(t, "follower WAL reaching the primary's end", func() bool { return fw.End() == pwal.End() })
		got := segmentFiles(t, fw.Dir())
		if len(got) != len(want) {
			t.Fatalf("follower %d has %d segments, primary %d", i, len(got), len(want))
		}
		for name, blob := range want {
			if !bytes.Equal(got[name], blob) {
				t.Fatalf("follower %d: %s differs from the primary's (%d vs %d bytes)", i, name, len(got[name]), len(blob))
			}
		}
		if err := followers[i].VerifyInvariant(); err != nil {
			t.Fatal(err)
		}
	}
}

// parentBody is what the previous version, whose WAL records were JSON
// objects, answered a pull for the two-submission history below. A
// follower of this version refuses it whole: the JSON pull decodes events
// as base64 records, so an object fails the decode, nothing is applied,
// and the pull loop keeps the error in last_error. Groups upgrade their
// followers first.
const parentBody = `{"epoch":1,"from":{"seg":1,"off":0},"next":{"seg":1,"off":358},"end":{"seg":1,"off":358},"lag_bytes":0,` +
	`"events":[{"t_s":0,"kind":"accept","request":0,"ingress":0,"egress":1,"rate_bps":250000000,"tau_s":400,"volume_bytes":100000000000,"max_rate_bps":1000000000},` +
	`{"t_s":0,"kind":"reject","request":1,"ingress":0,"egress":1,"volume_bytes":1000000000000,"max_rate_bps":1000000000,"reason":"infeasible: needs 100GB/s to move 1TB in window but MaxRate is 1GB/s"}]}` + "\n"

// goldenBody is this version's answer for the same history: the same
// document, each event a trace record in base64. A follower of this
// version applies it; the parent's decoder refuses it.
const goldenBody = `{"epoch":1,"from":{"seg":1,"off":0},"next":{"seg":1,"off":152},"end":{"seg":1,"off":152},"lag_bytes":0,` +
	`"events":["AQAAAAI6AAAAAGXNrUEAAAAAAAB5QAAAAOh2SDdCAAAAAGXNzUEAAAAA","AQECAAIwAAAAopQabUIAAAAAZc3NQURpbmZlYXNpYmxlOiBuZWVkcyAxMDBHQi9zIHRvIG1vdmUgMVRCIGluIHdpbmRvdyBidXQgTWF4UmF0ZSBpcyAxR0IvcwAAAA=="]}` + "\n"

func TestShippedBatchWireShapeIsUnchanged(t *testing.T) {
	clk := &fakeClock{}

	// Parent → this version: refused, nothing applied.
	parent := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, parentBody)
	}))
	defer parent.Close()
	pfcfg := uniformConfig(clk)
	pfcfg.WAL = openTestWAL(t)
	pfcfg.Follow = parent.URL
	pf := newTestServer(t, pfcfg)
	if err := pf.StartFollowing(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the parent's batch refused", func() bool { return pf.ReplicationStatus().LastError != "" })
	if rs := pf.ReplicationStatus(); !strings.Contains(rs.LastError, "decode") || rs.Applied != 0 || !rs.Cursor.IsZero() ||
		pf.Status().Active != 0 || pfcfg.WAL.Records() != 0 {
		t.Fatalf("after the parent's batch: last_error %q, %d applied, cursor %v, %d active, %d WAL records; want a decode error and nothing applied",
			rs.LastError, rs.Applied, rs.Cursor, pf.Status().Active, pfcfg.WAL.Records())
	}

	// This version → this version: the golden body applies, and the
	// follower logs the records it was sent, not a re-encoding.
	var golden cluster.ShippedBatch
	if err := json.Unmarshal([]byte(goldenBody), &golden); err != nil {
		t.Fatalf("golden batch does not decode: %v", err)
	}
	fcfg := uniformConfig(clk)
	fcfg.WAL = openTestWAL(t)
	fcfg.Follow = "http://127.0.0.1:0" // driven directly, never dialed
	f := newTestServer(t, fcfg)
	if err := f.ApplyShipped(golden); err != nil {
		t.Fatalf("golden batch does not apply: %v", err)
	}
	if st := f.Status(); st.Active != 1 || f.ReplicationStatus().Cursor != golden.Next {
		t.Fatalf("after the golden batch: %d active, cursor %v, want 1 and %v", st.Active, f.ReplicationStatus().Cursor, golden.Next)
	}
	logged, _, _, err := fcfg.WAL.ReadFrom(wal.Pos{}, 0, 0)
	if err != nil || len(logged) != len(golden.Events) {
		t.Fatalf("follower WAL holds %d frames (%v), want %d", len(logged), err, len(golden.Events))
	}
	for i := range logged {
		if !bytes.Equal(logged[i], golden.Events[i]) {
			t.Fatalf("follower frame %d = %x, shipped %x", i, logged[i], golden.Events[i])
		}
	}

	// This version's primary answers the golden body, which the parent's
	// batch type refuses.
	pcfg := uniformConfig(clk)
	pcfg.WAL = openTestWAL(t)
	primary := newTestServer(t, pcfg)
	ts := httptest.NewServer(primary.Handler())
	defer ts.Close()
	if d, err := primary.Submit(server.Submission{From: 0, To: 1, Volume: 100 * units.GB, Deadline: 400, MaxRate: 1 * units.GBps}); err != nil || !d.Accepted {
		t.Fatalf("submit: %v %+v", err, d)
	}
	if d, err := primary.Submit(server.Submission{From: 0, To: 1, Volume: 1 * units.TB, Deadline: 10, MaxRate: 1 * units.GBps}); err != nil || d.Accepted {
		t.Fatalf("submit: %v %+v", err, d)
	}
	body := pullBody(t, ts.URL, wal.Pos{})
	if string(body) != goldenBody {
		t.Fatalf("pull body changed:\n got %s\nwant %s", body, goldenBody)
	}
	var parentView struct { // the parent's ShippedBatch
		Epoch    uint64        `json:"epoch"`
		From     wal.Pos       `json:"from"`
		Next     wal.Pos       `json:"next"`
		End      wal.Pos       `json:"end"`
		LagBytes int64         `json:"lag_bytes"`
		Events   []trace.Event `json:"events"`
	}
	if err := json.Unmarshal(body, &parentView); err == nil {
		t.Fatalf("the parent's batch type decoded this version's body: %+v", parentView)
	}
	want, _, err := server.ReadWALEvents(pcfg.WAL, wal.Pos{})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := server.ReadWALEvents(fcfg.WAL, wal.Pos{})
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("follower's events %+v (%v), want the primary's %+v", got, err, want)
	}
}

// A batch with one malformed element is refused whole: nothing applied,
// nothing appended, cursor where it was.
func TestApplyShippedRefusesMalformedBatchWhole(t *testing.T) {
	clk := &fakeClock{}
	fcfg := uniformConfig(clk)
	fcfg.WAL = openTestWAL(t)
	fcfg.Follow = "http://127.0.0.1:0" // driven directly, never dialed
	f := newTestServer(t, fcfg)

	good := frames(t, trace.Event{
		Kind: trace.EventAccept, Request: 0, Ingress: 0, Egress: 1,
		RateBps: 1e8, TauS: 100, VolumeB: 1e10, MaxRateBps: 1e9,
	})[0]
	// JSON records (below the upgrade floor), and binary records cut short,
	// with a byte past the end, of an unknown version or of an unknown kind.
	for _, bad := range []string{`{"t_s":`, `{"kind":7}`, `[]`, ``,
		string(good[:len(good)-1]), string(good) + "x", "\x02" + string(good[1:]), "\x01\x0c" + string(good[2:])} {
		err := f.ApplyShipped(cluster.ShippedBatch{
			Epoch: 1, Next: wal.Pos{Seg: 1, Off: 500},
			Events: [][]byte{good, []byte(bad)},
		})
		if err == nil {
			t.Fatalf("batch with element %q applied", bad)
		}
		rs := f.ReplicationStatus()
		if st := f.Status(); st.Active != 0 || rs.Applied != 0 || !rs.Cursor.IsZero() || fcfg.WAL.Records() != 0 {
			t.Fatalf("after refusing %q: %d active, %d applied, cursor %v, %d WAL records; want all zero",
				bad, st.Active, rs.Applied, rs.Cursor, fcfg.WAL.Records())
		}
	}
	if err := f.ApplyShipped(cluster.ShippedBatch{Epoch: 1, Next: wal.Pos{Seg: 1, Off: 500}, Events: [][]byte{good}}); err != nil {
		t.Fatalf("the well-formed batch: %v", err)
	}
	if st := f.Status(); st.Active != 1 || fcfg.WAL.Records() != 1 {
		t.Fatalf("after the well-formed batch: %d active, %d WAL records, want 1 and 1", st.Active, fcfg.WAL.Records())
	}
}

// TestFollowerAppendsParentRecordsAsReceived: a follower of this build
// appends every record its primary streams exactly as received, so its log
// stays the primary's byte for byte. A batch of JSON records, as a primary
// below the upgrade floor streams them, is refused whole: nothing is
// applied or appended, and the error names the floor.
func TestFollowerAppendsParentRecordsAsReceived(t *testing.T) {
	clk := &fakeClock{}
	events := []trace.Event{
		{Kind: trace.EventAccept, Request: 0, Ingress: 0, Egress: 1, RateBps: 1e8, TauS: 100, VolumeB: 1e10, MaxRateBps: 1e9, Key: "k0"},
		{Kind: trace.EventReject, Request: 1, Ingress: 1, Egress: 0, VolumeB: 1e15, MaxRateBps: 1e9, Reason: "infeasible", Key: "k1"},
		{At: 1, Kind: trace.EventAccept, Request: 2, Ingress: 1, Egress: 1, RateBps: 1e8, SigmaS: 1, TauS: 50, VolumeB: 4.9e9, MaxRateBps: 1e9},
		{At: 2, Kind: trace.EventCancel, Request: 2, Ingress: 1, Egress: 1},
	}
	stream := func(encode func(ev *trace.Event) ([]byte, error)) ([]byte, [][]byte, wal.Pos) {
		var payloads [][]byte
		for i := range events {
			p, err := encode(&events[i])
			if err != nil {
				t.Fatal(err)
			}
			payloads = append(payloads, p)
		}
		var stream []byte
		var pos wal.Pos
		for _, batch := range [][][]byte{payloads[:2], payloads[2:]} {
			next := pos
			for _, p := range batch {
				next = wal.Pos{Seg: 1, Off: next.Off + int64(len(wal.AppendFrame(nil, p)))}
			}
			stream = cluster.AppendReplBatch(stream, &cluster.ShippedBatch{Epoch: 1, From: pos, Next: next, End: next, Events: batch})
			pos = next
		}
		return stream, payloads, pos
	}

	fcfg := uniformConfig(clk)
	fcfg.WAL = openTestWAL(t)
	fcfg.Follow = "http://127.0.0.1:0" // driven directly, never dialed
	f := newTestServer(t, fcfg)
	old, _, _ := stream(func(ev *trace.Event) ([]byte, error) { return json.Marshal(ev) })
	if err := f.FollowStream(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(old), io.Discard}); err == nil || !strings.Contains(err.Error(), "upgrade floor") {
		t.Fatalf("stream of JSON records ended with %v, want the upgrade-floor refusal", err)
	}
	if rs := f.ReplicationStatus(); rs.Applied != 0 || !rs.Cursor.IsZero() || fcfg.WAL.Records() != 0 || f.Status().Active != 0 {
		t.Fatalf("after the JSON batch: %d applied, cursor %v, %d WAL records, %d active; want all zero",
			rs.Applied, rs.Cursor, fcfg.WAL.Records(), f.Status().Active)
	}

	cur, payloads, pos := stream(func(ev *trace.Event) ([]byte, error) { return trace.AppendRecord(nil, ev) })
	if err := f.FollowStream(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(cur), io.Discard}); !errors.Is(err, io.EOF) {
		t.Fatalf("stream ended with %v, want EOF after both batches", err)
	}
	logged, _, end, err := fcfg.WAL.ReadFrom(wal.Pos{}, 0, 0)
	if err != nil || !reflect.DeepEqual(logged, payloads) || end != pos {
		t.Fatalf("follower logged %q up to %v (%v), want %q up to %v", logged, end, err, payloads, pos)
	}
	oracle := newTestServer(t, uniformConfig(clk))
	if n, err := oracle.ApplyEvents(events); err != nil || n != len(events) {
		t.Fatalf("oracle applied %d of %d: %v", n, len(events), err)
	}
	if got, want := f.Snapshot().Events, oracle.Snapshot().Events; !reflect.DeepEqual(got, want) {
		t.Fatalf("follower state\n %+v\nwant\n %+v", got, want)
	}
}
