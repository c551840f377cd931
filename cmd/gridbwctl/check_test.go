package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gridbw/internal/check"
	"gridbw/internal/server"
	"gridbw/internal/units"
	"gridbw/internal/wal"
)

// seedRun books decisions into a fresh WAL and returns its directory
// plus the matching client history.
func seedRun(t *testing.T, accepts int) (string, []check.Op) {
	t.Helper()
	dir := t.TempDir()
	l, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	srv, err := server.New(server.Config{
		Ingress: []units.Bandwidth{1 * units.GBps, 1 * units.GBps},
		Egress:  []units.Bandwidth{1 * units.GBps, 1 * units.GBps},
		WAL:     l,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var ops []check.Op
	for i := 0; i < accepts; i++ {
		d, err := srv.Submit(server.Submission{
			From: i % 2, To: (i + 1) % 2,
			Volume: 5 * units.GB, Deadline: 40000, MaxRate: 50 * units.MBps,
		})
		if err != nil || !d.Accepted {
			t.Fatalf("submit %d: %v %+v", i, err, d)
		}
		ops = append(ops, check.Op{
			Kind: check.OpSubmit, Key: "k" + string(rune('a'+i)), ID: int(d.ID),
			Accepted: true, Durability: "replicated",
			RateBps: float64(d.Rate), SigmaS: float64(d.Sigma), TauS: float64(d.Tau),
		})
	}
	return dir, ops
}

func writeHistory(t *testing.T, ops []check.Op) string {
	t.Helper()
	rec := check.NewRecorder()
	for _, op := range ops {
		rec.Record(op)
	}
	path := filepath.Join(t.TempDir(), "history.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteJSONL(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return path
}

func TestCheckCleanRun(t *testing.T) {
	dir, ops := seedRun(t, 3)
	var out bytes.Buffer
	err := run(context.Background(), []string{"check", "-history", writeHistory(t, ops), "-wal", dir}, &out)
	if err != nil {
		t.Fatalf("clean run flagged: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "0 violations") {
		t.Fatalf("missing verdict: %s", out.String())
	}
}

// TestCheckLeavesATornDirectoryUntouched: the checker audits a directory
// whose last frame is half-written without repairing it — every file stays
// byte for byte as it was — and judges the records before the tear.
func TestCheckLeavesATornDirectoryUntouched(t *testing.T) {
	dir, ops := seedRun(t, 3)
	f, err := os.OpenFile(filepath.Join(dir, "wal-00000001.seg"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	frame := wal.AppendFrame(nil, []byte(`{"t_s":0,"kind":"accept","request":9,"ingress":0,"egress":1}`))
	f.Write(frame[:len(frame)-3])
	f.Close()
	before := dirBytes(t, dir)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"check", "-history", writeHistory(t, ops), "-wal", dir}, &out); err != nil {
		t.Fatalf("torn run flagged: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "against 3 logged decisions") {
		t.Fatalf("verdict %q, want the 3 decisions before the tear", out.String())
	}
	if after := dirBytes(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatal("the checker changed the directory it audited")
	}
}

func TestCheckDetectsDurableLoss(t *testing.T) {
	dir, ops := seedRun(t, 2)
	// The client holds a replicated ack for an ID the log never booked.
	ops = append(ops, check.Op{Kind: check.OpSubmit, Key: "lost", ID: 999,
		Accepted: true, Durability: "replicated"})
	var out bytes.Buffer
	err := run(context.Background(), []string{"check", "-history", writeHistory(t, ops), "-wal", dir}, &out)
	if err == nil {
		t.Fatalf("durable loss not flagged: %s", out.String())
	}
	if !strings.Contains(out.String(), "durable-loss") {
		t.Fatalf("wrong violation: %s", out.String())
	}
}

func TestCheckFlagValidation(t *testing.T) {
	if err := run(context.Background(), []string{"check", "-history", "x"}, &bytes.Buffer{}); err == nil {
		t.Fatal("missing -wal accepted")
	}
	if err := run(context.Background(), []string{"check", "-wal", "x"}, &bytes.Buffer{}); err == nil {
		t.Fatal("missing -history accepted")
	}
	dir, ops := seedRun(t, 1)
	if err := run(context.Background(), []string{"check", "-history", writeHistory(t, ops), "-wal", dir,
		"-ingress", "nope"}, &bytes.Buffer{}); err == nil {
		t.Fatal("bad -ingress accepted")
	}
}
