package cluster

import (
	"bytes"
	"encoding/json"
	"testing"

	"gridbw/internal/trace"
	"gridbw/internal/wal"
	"gridbw/internal/wire"
)

// FuzzReplFrames: over arbitrary bytes the replication stream's decoders
// never panic, what they accept is within the bounds the primary ships
// under, and it re-encodes to the same bytes. (The daemon's FuzzReplFrames
// plays the same kind of bytes down a follower's stream.)
func FuzzReplFrames(f *testing.F) {
	f.Add(AppendReplBatch(nil, &ShippedBatch{
		Epoch: 2, From: wal.Pos{Seg: 1}, Next: wal.Pos{Seg: 1, Off: 9}, End: wal.Pos{Seg: 1, Off: 9},
		Events: [][]byte{[]byte(`{"kind":"reject"}`)},
	}))
	f.Add(AppendReplBatch(nil, &ShippedBatch{
		Epoch: 2, From: wal.Pos{Seg: 1}, Next: wal.Pos{Seg: 1, Off: 150}, End: wal.Pos{Seg: 1, Off: 150},
		Events: records(f,
			trace.Event{Kind: trace.EventAccept, Ingress: 0, Egress: 1, RateBps: 1e8, TauS: 100, VolumeB: 1e10, MaxRateBps: 1e9, Key: "k"},
			trace.Event{At: 1, Kind: trace.EventCancel}),
	}))
	f.Add(AppendReplBatch(nil, &ShippedBatch{Epoch: 1, From: wal.Pos{Seg: 1}, Next: wal.Pos{Seg: 1}}))
	f.Add(AppendReplGone(nil))
	f.Add(AppendPos(nil, wal.Pos{Seg: 3, Off: 4096}))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, gone, err := DecodeReplFrame(data)
		switch {
		case err != nil:
		case gone:
			if !bytes.Equal(data, AppendReplGone(nil)) {
				t.Fatalf("gone frame %x is not the canonical one", data)
			}
		default:
			if len(b.Events) > MaxShippedRecords {
				t.Fatalf("decoded %d records", len(b.Events))
			}
			for i, ev := range b.Events {
				if len(ev) == 0 || len(ev) > wal.MaxRecordBytes {
					t.Fatalf("record %d of %d bytes decoded", i, len(ev))
				}
			}
			if re := AppendReplBatch(nil, &b); !bytes.Equal(re, data) {
				t.Fatalf("re-encoding differs:\n got %x\nwant %x", re, data)
			}
		}
		if err == nil {
			frame, rerr := wire.ReadFrame(bytes.NewReader(data), nil)
			if rerr != nil || !bytes.Equal(frame, data) {
				t.Fatalf("framing off a stream: %x, %v", frame, rerr)
			}
		}
		if p, err := DecodeReplAck(data); err == nil {
			if re := AppendPos(nil, p); !bytes.Equal(re, data) {
				t.Fatalf("cursor %v re-encodes to %x, not %x", p, re, data)
			}
		}
	})
}

// TestReplFramesRoundTripAndRefuse pins the stream codec: a batch and the
// gone frame decode to what was encoded, and the decoder refuses a count
// above the pull clamp, a record length of zero or past the WAL's record
// bound, and every truncation.
func TestReplFramesRoundTripAndRefuse(t *testing.T) {
	ev := records(t,
		trace.Event{Kind: trace.EventAccept, Request: 3, RateBps: 1e8, TauS: 100, VolumeB: 1e10, MaxRateBps: 1e9},
		trace.Event{Kind: trace.EventCancel, Request: 3, At: 5})
	b := ShippedBatch{
		Epoch: 7, From: wal.Pos{Seg: 2, Off: 10}, Next: wal.Pos{Seg: 3, Off: 40},
		End: wal.Pos{Seg: 4, Off: 1}, LagBytes: 99, Events: ev,
	}
	frame := AppendReplBatch(nil, &b)
	got, gone, err := DecodeReplFrame(frame)
	if err != nil || gone {
		t.Fatalf("decode: %v gone=%v", err, gone)
	}
	if blob, _ := json.Marshal(got); string(blob) != string(mustJSON(t, b)) {
		t.Fatalf("round trip: got %s, want %s", blob, mustJSON(t, b))
	}
	for n := range frame {
		if _, _, err := DecodeReplFrame(frame[:n]); err == nil {
			t.Fatalf("%d-byte prefix of a %d-byte frame decoded", n, len(frame))
		}
	}
	if _, gone, err := DecodeReplFrame(AppendReplGone(nil)); err != nil || !gone {
		t.Fatalf("gone frame: gone=%v %v", gone, err)
	}

	many := make([][]byte, MaxShippedRecords+1)
	for i := range many {
		many[i] = []byte("1")
	}
	if _, _, err := DecodeReplFrame(AppendReplBatch(nil, &ShippedBatch{Events: many[:MaxShippedRecords]})); err != nil {
		t.Fatalf("a batch at the clamp: %v", err)
	}
	for name, events := range map[string][][]byte{
		"count above the clamp": many,
		"empty record":          {[]byte("1"), {}},
		"oversized record":      {bytes.Repeat([]byte{'1'}, wal.MaxRecordBytes+1)},
	} {
		if _, _, err := DecodeReplFrame(AppendReplBatch(nil, &ShippedBatch{Events: events})); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
	if _, err := DecodeReplAck(AppendPos(nil, wal.Pos{Seg: 1, Off: -1})); err == nil {
		t.Error("cursor frame with a negative offset decoded")
	}
}

// records encodes events as the WAL payloads a batch ships.
func records(t testing.TB, events ...trace.Event) [][]byte {
	t.Helper()
	out := make([][]byte, len(events))
	for i := range events {
		blob, err := trace.AppendRecord(nil, &events[i])
		if err != nil {
			t.Fatal(err)
		}
		out[i] = blob
	}
	return out
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}
