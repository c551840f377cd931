package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// recordSamples holds one event of every kind, with the shapes the daemon
// logs: a hold's -1 point, raw-byte keys and a reason.
func recordSamples() []Event {
	return []Event{
		{At: 12.5, Kind: EventAccept, Request: 4096, Ingress: 0, Egress: 1, RateBps: 1e8, SigmaS: 12.5, TauS: 22.5,
			VolumeB: 1e9, MaxRateBps: 2e8, Key: "\xff\xfe not UTF-8"},
		{At: 3, Kind: EventReject, Request: 7, Ingress: 2, Egress: 3, VolumeB: 1e12, MaxRateBps: 1e9,
			Reason: "infeasible: needs 100GB/s", Key: "k-7"},
		{At: 40, Kind: EventCancel, Request: 4096, Ingress: 0, Egress: 1},
		{At: 22.5, Kind: EventExpire, Request: 4096, Ingress: 0, Egress: 1},
		{Kind: EventRestore, Request: -1, Ingress: -1, Egress: -1, Reason: "restored"},
		{At: 1, Kind: EventPanic, Request: -1, Ingress: -1, Egress: -1, Reason: "handler: boom"},
		{At: 99, Kind: EventPromote, Request: -1, Ingress: -1, Egress: -1, Reason: "epoch 2"},
		{At: 5, Kind: EventHoldReserve, Request: 9, Ingress: 4, Egress: -1, RateBps: 5e7, SigmaS: 5, TauS: 25,
			VolumeB: 1e9, MaxRateBps: 1e8, Hold: "h-1", Side: HoldSideIngress, ExpireS: 7},
		{At: 6, Kind: EventHoldConfirm, Request: 9, Ingress: -1, Egress: 3, Hold: "h-2", Side: HoldSideEgress},
		{At: 6, Kind: EventHoldAbort, Request: 10, Ingress: 4, Egress: -1, Hold: "h-3", Side: HoldSideIngress},
		{At: 7, Kind: EventHoldExpire, Request: 11, Ingress: 4, Egress: -1, Hold: "h-4", Side: HoldSideIngress},
		{At: math.MaxFloat64, Kind: EventHoldRelease, Request: math.MaxInt, Ingress: math.MinInt, Egress: -1,
			SigmaS: math.Copysign(0, -1), Hold: "h-5", Side: HoldSideIngress},
	}
}

func TestRecordRoundTripsEveryKind(t *testing.T) {
	samples := recordSamples()
	if len(samples) != len(recordKinds) {
		t.Fatalf("%d samples for %d kinds", len(samples), len(recordKinds))
	}
	for i := range samples {
		rec, err := AppendRecord([]byte("prefix"), &samples[i])
		if err != nil || !bytes.HasPrefix(rec, []byte("prefix")) {
			t.Fatalf("%s: %v", samples[i].Kind, err)
		}
		rec = rec[len("prefix"):]
		if rec[0] != RecordVersion || rec[0] == '{' {
			t.Fatalf("%s: record starts with %#x", samples[i].Kind, rec[0])
		}
		var got Event
		if err := DecodeRecord(rec, &got); err != nil {
			t.Fatalf("%s: %v", samples[i].Kind, err)
		}
		if !reflect.DeepEqual(got, samples[i]) || math.Float64bits(got.SigmaS) != math.Float64bits(samples[i].SigmaS) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, samples[i])
		}
	}
}

func TestRecordRefusesWhatItCannotCarry(t *testing.T) {
	for _, ev := range []Event{
		{Kind: "checkpoint"},
		{Kind: EventAccept, RateBps: math.NaN()},
		{Kind: EventAccept, TauS: math.Inf(1)},
	} {
		if rec, err := AppendRecord([]byte("x"), &ev); err == nil || string(rec) != "x" {
			t.Errorf("%+v: encoded %q, %v; want an error and dst unchanged", ev, rec, err)
		}
	}
	good, err := AppendRecord(nil, &recordSamples()[0])
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string][]byte{
		"empty":            nil,
		"version 2":        append([]byte{2}, good[1:]...),
		"unknown kind":     append([]byte{RecordVersion, byte(len(recordKinds))}, good[2:]...),
		"trailing byte":    append(append([]byte{}, good...), 0),
		"long varint":      {RecordVersion, 0, 0x80, 0x00, 0, 0, 0, 0, 0, 0, 0},
		"unknown mask bit": {RecordVersion, 0, 0, 0, 0, 0x80, 0, 0, 0, 0},
		"zero float":       {RecordVersion, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		"NaN float":        {RecordVersion, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0, 0, 0, 0},
		"string too long":  {RecordVersion, 0, 0, 0, 0, 0, 5, 'a', 0, 0, 0},
		"JSON not object":  []byte(`{"kind":7}`),
	} {
		var ev Event
		if err := DecodeRecord(p, &ev); err == nil {
			t.Errorf("%s: decoded %+v", name, ev)
		}
	}
	for n := range good {
		var ev Event
		if err := DecodeRecord(good[:n], &ev); err == nil {
			t.Fatalf("%d-byte prefix of a %d-byte record decoded", n, len(good))
		}
	}
}

// A JSON record, as builds below the upgrade floor wrote them, is refused
// with an error that names the floor and the way out, and leaves nothing
// decoded.
// TestDecoderSharesRepeatedStrings decodes a stream of records through one
// Decoder: every event equals DecodeRecord's, a reason or side that repeats
// the last one comes back as the same string, and a repeated refusal then
// costs only its key's copy. Keys are never shared: the caller keeps them.
func TestDecoderSharesRepeatedStrings(t *testing.T) {
	var d Decoder
	for _, want := range recordSamples() {
		p, err := AppendRecord(nil, &want)
		if err != nil {
			t.Fatal(err)
		}
		var got, ref Event
		if err := d.Decode(p, &got); err != nil {
			t.Fatal(err)
		}
		if err := DecodeRecord(p, &ref); err != nil || !reflect.DeepEqual(got, ref) {
			t.Fatalf("decoder: %+v, DecodeRecord: %+v, %v", got, ref, err)
		}
	}
	reject := Event{At: 3, Kind: EventReject, Request: 7, Ingress: 1, Egress: 0, Reason: "capacity saturated", Key: "k-7"}
	p, err := AppendRecord(nil, &reject)
	if err != nil {
		t.Fatal(err)
	}
	var first, second Event
	if d.Decode(p, &first) != nil || d.Decode(p, &second) != nil {
		t.Fatal("decode failed")
	}
	if unsafe.StringData(first.Reason) != unsafe.StringData(second.Reason) {
		t.Fatal("a repeated reason was copied again")
	}
	if unsafe.StringData(first.Key) == unsafe.StringData(second.Key) {
		t.Fatal("two records share a key string")
	}
	if n := testing.AllocsPerRun(100, func() { _ = d.Decode(p, &second) }); n != 1 {
		t.Fatalf("a repeated refusal allocates %v times, want 1 (its key)", n)
	}
}

func TestRecordReadsLegacyJSON(t *testing.T) {
	for _, ev := range recordSamples() {
		if ev.Key != "" && !strings.HasPrefix(ev.Key, "k") {
			continue // json.Marshal cannot keep a key that is not UTF-8
		}
		legacy, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		got := Event{Kind: EventAccept, Request: 7}
		err = DecodeRecord(legacy, &got)
		if !errors.Is(err, errJSONRecord) || !strings.Contains(err.Error(), "upgrade floor") || !strings.Contains(err.Error(), "wipe the WAL directory") {
			t.Fatalf("legacy %s: %v, want the upgrade-floor refusal", legacy, err)
		}
		if got != (Event{}) {
			t.Fatalf("legacy %s decoded to %+v, want nothing", legacy, got)
		}
	}
}

// FuzzRecord: DecodeRecord never panics on any bytes, and a binary record
// it accepts re-encodes to the same bytes; any event of a known kind with
// finite floats round-trips exactly, bit for bit.
func FuzzRecord(f *testing.F) {
	add := func(data []byte, ev Event) {
		kind, _ := recordKindCode(ev.Kind)
		f.Add(data, kind, int64(ev.Request), int64(ev.Ingress), int64(ev.Egress),
			ev.At, ev.RateBps, ev.SigmaS, ev.TauS, ev.VolumeB, ev.MaxRateBps, ev.ExpireS,
			ev.Reason, ev.Key, ev.Hold, ev.Side)
	}
	for _, ev := range recordSamples() {
		rec, err := AppendRecord(nil, &ev)
		if err != nil {
			f.Fatal(err)
		}
		add(rec, ev)
	}
	legacy, err := json.Marshal(recordSamples()[1])
	if err != nil {
		f.Fatal(err)
	}
	add(legacy, Event{Kind: EventReject})

	f.Fuzz(func(t *testing.T, data []byte, kind uint8, request, ingress, egress int64,
		at, rate, sigma, tau, vol, maxRate, expire float64, reason, key, hold, side string) {
		var ev Event
		err := DecodeRecord(data, &ev)
		if err == nil && data[0] == '{' {
			t.Fatalf("JSON record %q accepted", data)
		}
		if err == nil {
			again, err := AppendRecord(nil, &ev)
			if err != nil || !bytes.Equal(again, data) {
				t.Fatalf("accepted record %x re-encodes to %x, %v", data, again, err)
			}
		}

		in := Event{
			Kind: "unknown", Request: int(request), Ingress: int(ingress), Egress: int(egress),
			At: at, RateBps: rate, SigmaS: sigma, TauS: tau, VolumeB: vol, MaxRateBps: maxRate, ExpireS: expire,
			Reason: reason, Key: key, Hold: hold, Side: side,
		}
		if int(kind) < len(recordKinds) {
			in.Kind = recordKinds[kind]
		}
		finite := true
		for _, f := range recordFloatFields(&in) {
			finite = finite && !math.IsNaN(*f) && !math.IsInf(*f, 0)
		}
		rec, err := AppendRecord(nil, &in)
		if (err == nil) != (finite && in.Kind != "unknown") {
			t.Fatalf("encode %+v: %v", in, err)
		}
		if err != nil {
			return
		}
		var out Event
		if err := DecodeRecord(rec, &out); err != nil {
			t.Fatalf("decode of %+v's record: %v", in, err)
		}
		again, err := AppendRecord(nil, &out)
		if !reflect.DeepEqual(out, in) || err != nil || !bytes.Equal(again, rec) {
			t.Fatalf("round trip of %+v: got %+v (%v)", in, out, err)
		}
	})
}
