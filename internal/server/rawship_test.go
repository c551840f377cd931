package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"gridbw/internal/server"
	"gridbw/internal/trace"
	"gridbw/internal/units"
	"gridbw/internal/wal"
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
		r, err := reserve1(primary, server.HoldReserveJSON{
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

// The wire shape of a pull answer did not change when its events became
// raw frames, so a group can mix versions during an upgrade. goldenBody is
// what the previous encoder (Events []trace.Event through json.Encoder)
// answered for the two-submission history below, captured from that
// version; this handler must answer the same bytes, and a follower of this
// version must apply them.
const goldenBody = `{"epoch":1,"from":{"seg":1,"off":0},"next":{"seg":1,"off":358},"end":{"seg":1,"off":358},"lag_bytes":0,` +
	`"events":[{"t_s":0,"kind":"accept","request":0,"ingress":0,"egress":1,"rate_bps":250000000,"tau_s":400,"volume_bytes":100000000000,"max_rate_bps":1000000000},` +
	`{"t_s":0,"kind":"reject","request":1,"ingress":0,"egress":1,"volume_bytes":1000000000000,"max_rate_bps":1000000000,"reason":"infeasible: needs 100GB/s to move 1TB in window but MaxRate is 1GB/s"}]}` + "\n"

func TestShippedBatchWireShapeIsUnchanged(t *testing.T) {
	clk := &fakeClock{}

	// Parent → this version: the old body applies on a new follower.
	var old server.ShippedBatch
	if err := json.Unmarshal([]byte(goldenBody), &old); err != nil {
		t.Fatalf("parent-encoded batch does not decode: %v", err)
	}
	fcfg := uniformConfig(clk)
	fcfg.WAL = openTestWAL(t)
	fcfg.Follow = "http://127.0.0.1:0" // driven directly, never dialed
	f := newTestServer(t, fcfg)
	if err := f.ApplyShipped(old); err != nil {
		t.Fatalf("parent-encoded batch does not apply: %v", err)
	}
	if st := f.Status(); st.Active != 1 || f.ReplicationStatus().Cursor != old.Next {
		t.Fatalf("after the parent's batch: %d active, cursor %v, want 1 and %v", st.Active, f.ReplicationStatus().Cursor, old.Next)
	}
	// The follower logged the frames it was sent, not a re-encoding.
	logged, _, _, err := fcfg.WAL.ReadFrom(wal.Pos{}, 0, 0)
	if err != nil || len(logged) != len(old.Events) {
		t.Fatalf("follower WAL holds %d frames (%v), want %d", len(logged), err, len(old.Events))
	}
	for i := range logged {
		if !bytes.Equal(logged[i], old.Events[i]) {
			t.Fatalf("follower frame %d = %s, shipped %s", i, logged[i], old.Events[i])
		}
	}

	// This version → parent: the new body is the same JSON document shape.
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
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&parentView); err != nil {
		t.Fatalf("new body does not decode as the parent's batch: %v", err)
	}
	want, _, err := server.ReadWALEvents(pcfg.WAL, wal.Pos{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parentView.Events, want) || parentView.Next != pcfg.WAL.End() || parentView.Epoch != 1 {
		t.Fatalf("parent's view of the new body = %+v, want events %+v up to %v", parentView, want, pcfg.WAL.End())
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
	for _, bad := range []string{`{"t_s":`, `{"kind":7}`, `[]`, ``} {
		err := f.ApplyShipped(server.ShippedBatch{
			Epoch: 1, Next: wal.Pos{Seg: 1, Off: 500},
			Events: []json.RawMessage{good, json.RawMessage(bad)},
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
	if err := f.ApplyShipped(server.ShippedBatch{Epoch: 1, Next: wal.Pos{Seg: 1, Off: 500}, Events: []json.RawMessage{good}}); err != nil {
		t.Fatalf("the well-formed batch: %v", err)
	}
	if st := f.Status(); st.Active != 1 || fcfg.WAL.Records() != 1 {
		t.Fatalf("after the well-formed batch: %d active, %d WAL records, want 1 and 1", st.Active, fcfg.WAL.Records())
	}
}
