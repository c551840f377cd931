package server

// The internal wire: length-prefixed binary frames. Every call one gridbw
// process makes on another's request plane — a single submit, a batch, the
// three list-shaped hold calls — travels in this framing when the request
// Content-Type is BinaryBatchContentType, and is answered in it. JSON
// stays the default for everything else (curl, dashboards), as a codec in
// front of the same call (jsonface.go): it turns the JSON into these frames
// and the answer frame back into JSON. The format exists because
// encoding/json on both ends costs more than the admission pipeline itself,
// while these frames encode into a reused buffer and decode with one
// allocation per list plus one per non-empty string.
//
// Every frame (all integers little-endian):
//
//	magic (4 bytes) | u32 bodyLen | u32 count | count × record
//
// bodyLen counts every byte after itself, so a reader can frame the
// message off a stream before parsing. A malformed frame rejects the
// whole call (HTTP 400) — there is no per-item decode salvage, unlike
// JSON where parse errors fail item slots individually. str16 below is
// u16 length | bytes.
//
// Submissions — POST /v1/batch, and POST /v1/requests with count = 1:
//
//	"GBB1" record: u8 flags | u32 from | u32 to | f64 volume | f64 maxRate
//	               | f64 notBefore | f64 deadline | str16 key
//	flags: bit0 durable, bit1 notBefore-relative, bit2 deadline-relative
//
// Relative times are resolved against a single service-clock read per
// call on the server, mirroring the JSON fields start_in/deadline_in.
//
// Decisions — the answer to either, one item per record:
//
//	"GBR1" item: u8 kind; kind 0 (error):    str16 msg
//	                      kind 1 (decision): u64 id | u8 flags | u8 state
//	                                         | u8 durability | f64 rate
//	                                         | f64 sigma | f64 tau
//	                                         | str16 reason
//	flags: bit0 accepted, bit1 routed cross-shard (set by the router tier)
//
// Hold lists — POST /v1/reserve ("GHQ1" → "GHA1"), POST /v1/confirm and
// /v1/abort ("GHF1" → "GHS1"); the fields are those of the JSON shapes in
// holds.go, in declaration order:
//
//	"GHQ1" record: u8 flags | str16 hold | str16 side | u32 point
//	               | u32 peerPoint | f64 ttl | f64 volume | f64 maxRate
//	               | f64 notBefore | f64 deadline | f64 rate | f64 sigma
//	               | f64 tau                          flags: bit0 relTimes
//	"GHA1" item:   u8 flags | str16 hold | u64 id | f64 rate | f64 sigma
//	               | f64 tau | u64 epoch | f64 now | str16 reason
//	               | u16 code | str16 error           flags: bit0 held
//	"GHF1" record: u8 flags | str16 hold | u64 id | u64 epoch
//	                                                  flags: bit0 id present
//	"GHS1" item:   u8 flags | str16 hold | str16 state | str16 side
//	               | u32 peerPoint | u64 epoch | u16 code | str16 error
//	                                                  flags: bit0 released
//
// Lookups and cancels by id — the request frame of a GET or DELETE of
// /v1/requests/{id} when it travels as a call (below); the answer is a
// one-item "GBR1":
//
//	"GBI1" record: u64 id                             (count = 1)
//
// The call stream — any framed call upgraded to gridbw-call/1 (calls.go) —
// carries tagged calls up and tagged answers down, pipelined: a caller may
// send call after call without waiting, and the answers come back in
// whatever order the calls finish. Tag 0 is the call that upgraded the
// connection, answered first; the caller picks every later tag.
//
//	call:   u32 tag | u8 op | frame       op: 1 submit "GBB1", 2 batch
//	                                      "GBB1", 3 reserve "GHQ1", 4
//	                                      confirm "GHF1", 5 abort "GHF1",
//	                                      6 get "GBI1", 7 cancel "GBI1"
//	answer: u32 tag | u16 status | u8 codec | body
//	        codec 0: body is the op's answer frame, as over HTTP
//	        codec 1: body is "GBJ1" | u32 len | JSON — the error envelope
//	                 (with "retry_after_s" on a 429) or a 409 cancel's
//	                 reservation
//
// status is the HTTP status the same call would get, so every rule the
// client keys on holds on either carrier. A frame longer than
// MaxBinaryBatchBytes, an unknown op or a truncated call ends the stream.
//
// The replication stream — GET /v1/replication/pull upgraded to
// gridbw-repl/1 (replication.go) — carries one frame per shipped batch from
// the primary, and a bare 16-byte cursor back from the follower after each:
//
//	"GRB1" record: u32 length | payload    (the WAL payload, verbatim)
//	       header: u32 count | u64 epoch | pos from | pos next | pos end
//	               | i64 lagBytes, then count records
//	"GRG1" (gone): u32 count = 0 — the cursor was compacted away; a
//	               checkpoint follows (snapshot.go: WAL frames, the header
//	               declaring its event count), then batches from the
//	               position the checkpoint covers
//	ack:           pos                      pos: u64 seg | i64 off

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"gridbw/internal/trace"
	"gridbw/internal/units"
	"gridbw/internal/wal"
)

// BinaryBatchContentType is the request Content-Type that selects the
// frames of this file on every endpoint that has them (the name is from
// when POST /v1/batch was the only one); the answer carries it back.
const BinaryBatchContentType = "application/x-gridbw-batch"

// MaxBinaryBatchBytes is the body-size cap of a framed request —
// exported so proxying tiers bound their reads identically.
const MaxBinaryBatchBytes = wireMaxBatchBytes

const (
	wireReqMagic      = "GBB1"
	wireRespMagic     = "GBR1"
	wireReserveMagic  = "GHQ1"
	wireReservedMagic = "GHA1"
	wireRefMagic      = "GHF1"
	wireStateMagic    = "GHS1"
	wireBatchMagic    = "GRB1"
	wireGoneMagic     = "GRG1"
	wireIDMagic       = "GBI1"
	wireJSONMagic     = "GBJ1"

	wireFlagDurable     = 1 << 0
	wireFlagRelNotBefor = 1 << 1
	wireFlagRelDeadline = 1 << 2

	wireFlagAccepted = 1 << 0
	wireFlagRouted   = 1 << 1

	wireKindError    = 0
	wireKindDecision = 1

	// wireMaxBatchBytes caps how much of a framed body a handler reads:
	// generous for any in-limit list (records are ~50-80 bytes plus keys),
	// small enough that a garbage length prefix cannot balloon memory. It
	// bounds a replication frame the same way: a shipped batch stops at
	// pullMaxBytes plus one record.
	wireMaxBatchBytes = 8 << 20

	wireFrameHeaderSize = 8  // magic | u32 bodyLen
	wireAckBytes        = 16 // a follower's cursor frame
	callHeaderSize      = 5  // u32 tag | u8 op
	answerHeaderSize    = 7  // u32 tag | u16 status | u8 codec
)

// WireSubmission is one record of a framed submit or batch request: a
// Submission plus the relative-time flags the server resolves against its
// clock.
type WireSubmission struct {
	From, To  int
	Volume    units.Volume
	MaxRate   units.Bandwidth
	NotBefore units.Time
	Deadline  units.Time
	// RelNotBefore/RelDeadline mark the corresponding field as an offset
	// from the server's current service time rather than an absolute
	// instant — the binary spelling of start_in / deadline_in.
	RelNotBefore   bool
	RelDeadline    bool
	Durable        bool
	IdempotencyKey string
}

// resolve converts the wire record to a Submission against the given
// service-clock reading.
func (ws WireSubmission) resolve(now units.Time) Submission {
	sub := Submission{
		From:           ws.From,
		To:             ws.To,
		Volume:         ws.Volume,
		MaxRate:        ws.MaxRate,
		NotBefore:      ws.NotBefore,
		Deadline:       ws.Deadline,
		IdempotencyKey: ws.IdempotencyKey,
		Durable:        ws.Durable,
	}
	if ws.RelNotBefore {
		sub.NotBefore = now + ws.NotBefore
	}
	if ws.RelDeadline {
		sub.Deadline = now + ws.Deadline
	}
	return sub
}

// Wire resolves the dual numeric/string quantity fields of the JSON
// request shape into a wire record without touching a clock: relative
// times stay relative (flagged), so whichever daemon finally decides the
// submission resolves them against its own service clock. The JSON codec
// of the daemon and the router, and the client's encoders, share this; it
// refuses a point or a key a frame cannot carry.
func (req SubmitRequest) Wire() (WireSubmission, error) {
	ws := WireSubmission{
		From:           req.From,
		To:             req.To,
		Volume:         units.Volume(req.VolumeBytes),
		MaxRate:        units.Bandwidth(req.MaxRateBps),
		NotBefore:      units.Time(req.NotBeforeS),
		Deadline:       units.Time(req.DeadlineS),
		Durable:        req.Durable,
		IdempotencyKey: req.IdempotencyKey,
	}
	if err := checkPoint("from", req.From); err != nil {
		return ws, err
	}
	if err := checkPoint("to", req.To); err != nil {
		return ws, err
	}
	if err := CheckKey("idempotency_key", req.IdempotencyKey); err != nil {
		return ws, err
	}
	if req.Volume != "" {
		if req.VolumeBytes != 0 {
			return ws, fmt.Errorf("both volume and volume_bytes set")
		}
		v, err := units.ParseVolume(req.Volume)
		if err != nil {
			return ws, err
		}
		ws.Volume = v
	}
	if req.MaxRate != "" {
		if req.MaxRateBps != 0 {
			return ws, fmt.Errorf("both max_rate and max_rate_bps set")
		}
		b, err := units.ParseBandwidth(req.MaxRate)
		if err != nil {
			return ws, err
		}
		ws.MaxRate = b
	}
	if req.StartIn != "" {
		if req.NotBeforeS != 0 {
			return ws, fmt.Errorf("both start_in and not_before_s set")
		}
		d, err := units.ParseTime(req.StartIn)
		if err != nil {
			return ws, err
		}
		ws.NotBefore, ws.RelNotBefore = d, true
	}
	if req.DeadlineIn != "" {
		if req.DeadlineS != 0 {
			return ws, fmt.Errorf("both deadline_in and deadline_s set")
		}
		d, err := units.ParseTime(req.DeadlineIn)
		if err != nil {
			return ws, err
		}
		ws.Deadline, ws.RelDeadline = d, true
	}
	return ws, nil
}

func appendU16(dst []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(dst, v) }
func appendU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }
func appendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }
func appendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// MaxKeyBytes bounds an idempotency key, a hold key and a hold side: what a
// str16 can carry. It is not a knob. Both faces and the core refuse a
// longer one, and the client refuses it before encoding, so no key is ever
// cut; a WAL record with every string at this bound still fits
// wal.MaxRecordBytes.
const MaxKeyBytes = math.MaxUint16

// checkKey refuses a key (or a hold side) a str16 cannot carry; what names
// it in the error.
func CheckKey(what, key string) error {
	if len(key) > MaxKeyBytes {
		return fmt.Errorf("%s of %d bytes exceeds %d", what, len(key), MaxKeyBytes)
	}
	return nil
}

// checkPoint refuses an access-point index that does not travel in a
// frame's 32 bits, before it is encoded as some other point.
func checkPoint(what string, p int) error {
	if p != int(int32(p)) {
		return fmt.Errorf("%s %d outside the 32-bit point range", what, p)
	}
	return nil
}

// appendStr16 appends s behind its u16 length, cut at what that can say.
// Keys never reach the cut (MaxKeyBytes); a message may.
func appendStr16(dst []byte, s string) []byte {
	s = s[:min(len(s), math.MaxUint16)]
	return append(appendU16(dst, uint16(len(s))), s...)
}

func flagIf(on bool, bit byte) byte {
	if on {
		return bit
	}
	return 0
}

// beginFrame appends a frame header for count records and returns the
// offset of its length prefix, which endFrame fills in.
func beginFrame(dst []byte, magic string, count int) ([]byte, int) {
	dst = append(dst, magic...)
	lenAt := len(dst)
	dst = appendU32(dst, 0)
	return appendU32(dst, uint32(count)), lenAt
}

func endFrame(dst []byte, lenAt int) []byte {
	binary.LittleEndian.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-4))
	return dst
}

// wireReader walks a frame body with bounds checks; after any failure
// r.err is set and further reads return zero values.
type wireReader struct {
	data []byte
	off  int
	err  error
}

func (r *wireReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: truncated %s at offset %d", what, r.off)
	}
}

func (r *wireReader) u8(what string) byte {
	if r.err != nil || r.off+1 > len(r.data) {
		r.fail(what)
		return 0
	}
	v := r.data[r.off]
	r.off++
	return v
}

func (r *wireReader) u16(what string) uint16 {
	if r.err != nil || r.off+2 > len(r.data) {
		r.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint16(r.data[r.off:])
	r.off += 2
	return v
}

func (r *wireReader) u32(what string) uint32 {
	if r.err != nil || r.off+4 > len(r.data) {
		r.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v
}

func (r *wireReader) u64(what string) uint64 {
	if r.err != nil || r.off+8 > len(r.data) {
		r.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v
}

func (r *wireReader) f64(what string) float64 { return math.Float64frombits(r.u64(what)) }

// i32 reads a point index: an int that travels as its low 32 bits.
func (r *wireReader) i32(what string) int { return int(int32(r.u32(what))) }

func (r *wireReader) bytes(n int, what string) []byte {
	if r.err != nil || n < 0 || r.off+n > len(r.data) {
		r.fail(what)
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// str16 reads a length-prefixed string. The few values the protocol
// itself defines (hold sides and states) come back as constants, without
// allocating.
func (r *wireReader) str16(what string) string {
	b := r.bytes(int(r.u16(what)), what)
	switch string(b) {
	case "":
		return ""
	case trace.HoldSideIngress:
		return trace.HoldSideIngress
	case trace.HoldSideEgress:
		return trace.HoldSideEgress
	case "held":
		return "held"
	case "confirmed":
		return "confirmed"
	case "aborted":
		return "aborted"
	}
	return string(b)
}

// frameBody validates a magic + length prefix and returns the framed body.
func frameBody(data []byte, magic string) ([]byte, error) {
	if len(data) < len(magic)+4 {
		return nil, fmt.Errorf("wire: frame shorter than header (%d bytes)", len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("wire: bad magic %q, want %q", data[:len(magic)], magic)
	}
	n := binary.LittleEndian.Uint32(data[len(magic):])
	body := data[len(magic)+4:]
	if uint32(len(body)) != n {
		return nil, fmt.Errorf("wire: length prefix %d but %d body bytes", n, len(body))
	}
	return body, nil
}

// openFrame checks a frame's header and returns a reader over its body,
// positioned behind the record count it also returns.
func openFrame(data []byte, magic string) (wireReader, int, error) {
	body, err := frameBody(data, magic)
	r := wireReader{data: body}
	if err != nil {
		return r, 0, err
	}
	count := int(r.u32("count"))
	return r, count, r.err
}

// finish reports what went wrong reading a frame's count records, a frame
// that goes on behind them included.
func (r *wireReader) finish(count int) error {
	if r.err == nil && r.off != len(r.data) {
		return fmt.Errorf("wire: %d trailing bytes after %d records", len(r.data)-r.off, count)
	}
	return r.err
}

// decodeList parses one frame into its records. maxCount bounds the
// declared count before any allocation (0: no bound) and minRecord is the
// shortest encoding of one record, so a count the body cannot hold is
// rejected before allocating for it too.
func decodeList[T any](data []byte, magic string, minRecord, maxCount int, record func(*wireReader, *T)) ([]T, error) {
	r, count, err := openFrame(data, magic)
	if err != nil {
		return nil, err
	}
	if maxCount > 0 && count > maxCount {
		return nil, fmt.Errorf("wire: list of %d exceeds limit %d", count, maxCount)
	}
	if count > len(r.data)/minRecord {
		return nil, fmt.Errorf("wire: count %d exceeds body capacity", count)
	}
	out := make([]T, count)
	for i := range out {
		record(&r, &out[i])
		if r.err != nil {
			return nil, fmt.Errorf("record %d: %w", i, r.err)
		}
	}
	return out, r.finish(count)
}

// decodeRequestList is decodeList for the request side, where an empty
// list is malformed too.
func decodeRequestList[T any](data []byte, magic string, minRecord, maxCount int, record func(*wireReader, *T)) ([]T, error) {
	out, err := decodeList(data, magic, minRecord, maxCount, record)
	if err == nil && len(out) == 0 {
		return nil, fmt.Errorf("wire: empty list")
	}
	return out, err
}

// --- submissions ---------------------------------------------------------

func appendSubmission(dst []byte, ws *WireSubmission) []byte {
	dst = append(dst, flagIf(ws.Durable, wireFlagDurable)|
		flagIf(ws.RelNotBefore, wireFlagRelNotBefor)|flagIf(ws.RelDeadline, wireFlagRelDeadline))
	dst = appendU32(dst, uint32(ws.From))
	dst = appendU32(dst, uint32(ws.To))
	dst = appendF64(dst, float64(ws.Volume))
	dst = appendF64(dst, float64(ws.MaxRate))
	dst = appendF64(dst, float64(ws.NotBefore))
	dst = appendF64(dst, float64(ws.Deadline))
	return appendStr16(dst, ws.IdempotencyKey)
}

func readSubmission(r *wireReader, ws *WireSubmission) {
	flags := r.u8("flags")
	ws.Durable = flags&wireFlagDurable != 0
	ws.RelNotBefore = flags&wireFlagRelNotBefor != 0
	ws.RelDeadline = flags&wireFlagRelDeadline != 0
	ws.From = r.i32("from")
	ws.To = r.i32("to")
	ws.Volume = units.Volume(r.f64("volume"))
	ws.MaxRate = units.Bandwidth(r.f64("max_rate"))
	ws.NotBefore = units.Time(r.f64("not_before"))
	ws.Deadline = units.Time(r.f64("deadline"))
	ws.IdempotencyKey = r.str16("key")
}

// AppendBinaryBatchRequest appends the framed request for subs to dst and
// returns it.
func AppendBinaryBatchRequest(dst []byte, subs []WireSubmission) []byte {
	dst, lenAt := beginFrame(dst, wireReqMagic, len(subs))
	for i := range subs {
		dst = appendSubmission(dst, &subs[i])
	}
	return endFrame(dst, lenAt)
}

// AppendBinarySubmitRequest appends the one-record frame POST /v1/requests
// takes.
func AppendBinarySubmitRequest(dst []byte, ws *WireSubmission) []byte {
	dst, lenAt := beginFrame(dst, wireReqMagic, 1)
	return endFrame(appendSubmission(dst, ws), lenAt)
}

// DecodeBinaryBatchRequest parses a framed batch request. maxCount bounds
// the declared record count before any allocation (the server passes its
// MaxBatch; pass 0 for no bound).
func DecodeBinaryBatchRequest(data []byte, maxCount int) ([]WireSubmission, error) {
	// A keyless record is 43 bytes.
	return decodeRequestList(data, wireReqMagic, 43, maxCount, readSubmission)
}

// DecodeBinarySubmitRequest parses the one-record frame of a single
// submit; any other count is malformed.
func DecodeBinarySubmitRequest(data []byte) (ws WireSubmission, err error) {
	r, count, err := openFrame(data, wireReqMagic)
	if err == nil && count != 1 {
		err = fmt.Errorf("wire: %d records in a single submit", count)
	}
	if err != nil {
		return ws, err
	}
	readSubmission(&r, &ws)
	return ws, r.finish(1)
}

// --- decisions -----------------------------------------------------------

// Compact state and durability codes. Unknown values round-trip as the
// rejected / empty fallbacks rather than failing the frame — the codec
// must not turn a new server-side state into a client decode error.
var wireStates = [...]State{StateBooked, StateActive, StateExpired, StateCancelled, StateRejected}

func stateCode(s State) byte {
	for i, v := range wireStates {
		if v == s {
			return byte(i)
		}
	}
	return byte(len(wireStates) - 1)
}

func stateFromCode(c byte) State {
	if int(c) < len(wireStates) {
		return wireStates[c]
	}
	return StateRejected
}

func durabilityCode(d string) byte {
	switch d {
	case DurabilityReplicated:
		return 1
	case DurabilityDegraded:
		return 2
	default:
		return 0
	}
}

func durabilityFromCode(c byte) string {
	switch c {
	case 1:
		return DurabilityReplicated
	case 2:
		return DurabilityDegraded
	default:
		return ""
	}
}

func appendErrorItem(dst []byte, msg string) []byte {
	return appendStr16(append(dst, wireKindError), msg)
}

func appendDecisionItem(dst []byte, rj *ReservationJSON) []byte {
	dst = append(dst, wireKindDecision)
	dst = appendU64(dst, uint64(rj.ID))
	dst = append(dst,
		flagIf(rj.Accepted, wireFlagAccepted)|flagIf(rj.Routed == RoutedCrossShard, wireFlagRouted),
		stateCode(State(rj.State)), durabilityCode(rj.Durability))
	dst = appendF64(dst, rj.RateBps)
	dst = appendF64(dst, rj.SigmaS)
	dst = appendF64(dst, rj.TauS)
	return appendStr16(dst, rj.Reason)
}

// AppendBinaryBatchResponse appends the framed response for results to
// dst and returns it.
func AppendBinaryBatchResponse(dst []byte, results []BatchResult) []byte {
	dst, lenAt := beginFrame(dst, wireRespMagic, len(results))
	for i := range results {
		res := &results[i]
		if res.Err != nil {
			dst = appendErrorItem(dst, res.Err.Error())
			continue
		}
		rj := reservationOf(res.Decision)
		rj.Durability = res.Durability
		dst = appendDecisionItem(dst, &rj)
	}
	return endFrame(dst, lenAt)
}

// reservationOf is d in the item shape, as a decision item carries it.
func reservationOf(d Decision) ReservationJSON {
	return ReservationJSON{
		ID: int(d.ID), Accepted: d.Accepted, State: string(d.State), Reason: d.Reason,
		RateBps: float64(d.Rate), SigmaS: float64(d.Sigma), TauS: float64(d.Tau),
	}
}

// AppendBinaryBatchItems appends the framed response for items already in
// the JSON item shape — the router's gather format: shard answers arrive
// as BatchItemJSON and leave in the caller's codec without a detour
// through the server-internal BatchResult.
func AppendBinaryBatchItems(dst []byte, items []BatchItemJSON) []byte {
	dst, lenAt := beginFrame(dst, wireRespMagic, len(items))
	for i := range items {
		it := &items[i]
		switch {
		case it.Reservation != nil:
			dst = appendDecisionItem(dst, it.Reservation)
		case it.Error != "":
			dst = appendErrorItem(dst, it.Error)
		default:
			dst = appendErrorItem(dst, "no result")
		}
	}
	return endFrame(dst, lenAt)
}

// wireItem is one decoded response item, before it takes the pointer
// shape of BatchItemJSON.
type wireItem struct {
	rj    ReservationJSON
	err   string
	isErr bool
}

func readItem(r *wireReader, it *wireItem) {
	switch kind := r.u8("kind"); kind {
	case wireKindError:
		it.err, it.isErr = r.str16("error"), true
	case wireKindDecision:
		rj := &it.rj
		rj.ID = int(r.u64("id"))
		flags := r.u8("flags")
		rj.Accepted = flags&wireFlagAccepted != 0
		if flags&wireFlagRouted != 0 {
			rj.Routed = RoutedCrossShard
		}
		rj.State = string(stateFromCode(r.u8("state")))
		rj.Durability = durabilityFromCode(r.u8("durability"))
		rj.RateBps = r.f64("rate")
		rj.SigmaS = r.f64("sigma")
		rj.TauS = r.f64("tau")
		rj.Reason = r.str16("reason")
	default:
		if r.err == nil {
			r.err = fmt.Errorf("wire: unknown item kind %d", kind)
		}
	}
}

// DecodeBinaryBatchResponse parses a framed batch response into the same
// per-item form the JSON endpoint answers with, so callers classify
// results identically under either codec. (The human-readable Rate string
// is left empty — the frame carries RateBps only.) The reservations of one
// response share one allocation.
func DecodeBinaryBatchResponse(data []byte) ([]BatchItemJSON, error) {
	// kind + u16 length is the 3-byte minimum item.
	items, err := decodeList(data, wireRespMagic, 3, 0, readItem)
	if err != nil {
		return nil, err
	}
	out := make([]BatchItemJSON, len(items))
	for i := range items {
		if items[i].isErr {
			out[i].Error = items[i].err
		} else {
			out[i].Reservation = &items[i].rj
		}
	}
	return out, nil
}

// DecodeBinarySubmitResponse parses the one-item answer to a framed
// single submit.
func DecodeBinarySubmitResponse(data []byte) (ReservationJSON, error) {
	r, count, err := openFrame(data, wireRespMagic)
	if err == nil && count != 1 {
		err = fmt.Errorf("wire: %d items answer one submission", count)
	}
	if err != nil {
		return ReservationJSON{}, err
	}
	var it wireItem
	readItem(&r, &it)
	if err := r.finish(1); err != nil {
		return ReservationJSON{}, err
	}
	if it.isErr {
		return ReservationJSON{}, fmt.Errorf("wire: error item answers one submission: %s", it.err)
	}
	return it.rj, nil
}

// --- hold lists ----------------------------------------------------------

// AppendHoldReserveList appends the framed POST /v1/reserve body.
func AppendHoldReserveList(dst []byte, reqs []HoldReserveJSON) []byte {
	dst, lenAt := beginFrame(dst, wireReserveMagic, len(reqs))
	for i := range reqs {
		q := &reqs[i]
		dst = append(dst, flagIf(q.RelTimes, 1))
		dst = appendStr16(dst, q.Hold)
		dst = appendStr16(dst, q.Side)
		dst = appendU32(dst, uint32(q.Point))
		dst = appendU32(dst, uint32(q.PeerPoint))
		for _, v := range [...]float64{q.TTLS, q.VolumeBytes, q.MaxRateBps, q.NotBeforeS, q.DeadlineS, q.RateBps, q.SigmaS, q.TauS} {
			dst = appendF64(dst, v)
		}
	}
	return endFrame(dst, lenAt)
}

// DecodeHoldReserveList parses a framed POST /v1/reserve body of at most
// maxCount holds.
func DecodeHoldReserveList(data []byte, maxCount int) ([]HoldReserveJSON, error) {
	return decodeRequestList(data, wireReserveMagic, 77, maxCount, func(r *wireReader, q *HoldReserveJSON) {
		q.RelTimes = r.u8("flags")&1 != 0
		q.Hold = r.str16("hold")
		q.Side = r.str16("side")
		q.Point = r.i32("point")
		q.PeerPoint = r.i32("peer_point")
		for _, v := range [...]*float64{&q.TTLS, &q.VolumeBytes, &q.MaxRateBps, &q.NotBeforeS, &q.DeadlineS, &q.RateBps, &q.SigmaS, &q.TauS} {
			*v = r.f64("quantity")
		}
	})
}

// AppendHoldReserveResults appends the framed POST /v1/reserve answer.
func AppendHoldReserveResults(dst []byte, resps []HoldReserveResponseJSON) []byte {
	dst, lenAt := beginFrame(dst, wireReservedMagic, len(resps))
	for i := range resps {
		a := &resps[i]
		dst = append(dst, flagIf(a.Held, 1))
		dst = appendStr16(dst, a.Hold)
		dst = appendU64(dst, uint64(a.ID))
		dst = appendF64(dst, a.RateBps)
		dst = appendF64(dst, a.SigmaS)
		dst = appendF64(dst, a.TauS)
		dst = appendU64(dst, a.Epoch)
		dst = appendF64(dst, a.NowS)
		dst = appendStr16(dst, a.Reason)
		dst = appendU16(dst, uint16(a.Code))
		dst = appendStr16(dst, a.Error)
	}
	return endFrame(dst, lenAt)
}

// DecodeHoldReserveResults parses a framed POST /v1/reserve answer.
func DecodeHoldReserveResults(data []byte) ([]HoldReserveResponseJSON, error) {
	return decodeList(data, wireReservedMagic, 57, 0, func(r *wireReader, a *HoldReserveResponseJSON) {
		a.Held = r.u8("flags")&1 != 0
		a.Hold = r.str16("hold")
		a.ID = int(int64(r.u64("id")))
		a.RateBps = r.f64("rate")
		a.SigmaS = r.f64("sigma")
		a.TauS = r.f64("tau")
		a.Epoch = r.u64("epoch")
		a.NowS = r.f64("now")
		a.Reason = r.str16("reason")
		a.Code = int(r.u16("code"))
		a.Error = r.str16("error")
	})
}

// AppendHoldRefList appends the framed POST /v1/confirm or /v1/abort body.
func AppendHoldRefList(dst []byte, refs []HoldRefJSON) []byte {
	dst, lenAt := beginFrame(dst, wireRefMagic, len(refs))
	for i := range refs {
		ref := &refs[i]
		id := 0
		if ref.ID != nil {
			id = *ref.ID
		}
		dst = append(dst, flagIf(ref.ID != nil, 1))
		dst = appendStr16(dst, ref.Hold)
		dst = appendU64(dst, uint64(id))
		dst = appendU64(dst, ref.Epoch)
	}
	return endFrame(dst, lenAt)
}

// DecodeHoldRefList parses a framed POST /v1/confirm or /v1/abort body of
// at most maxCount refs.
func DecodeHoldRefList(data []byte, maxCount int) ([]HoldRefJSON, error) {
	return decodeRequestList(data, wireRefMagic, 19, maxCount, func(r *wireReader, ref *HoldRefJSON) {
		hasID := r.u8("flags")&1 != 0
		ref.Hold = r.str16("hold")
		if v := int(int64(r.u64("id"))); hasID {
			id := v
			ref.ID = &id
		}
		ref.Epoch = r.u64("epoch")
	})
}

// AppendHoldStates appends the framed POST /v1/confirm or /v1/abort answer.
func AppendHoldStates(dst []byte, sts []HoldStateJSON) []byte {
	dst, lenAt := beginFrame(dst, wireStateMagic, len(sts))
	for i := range sts {
		st := &sts[i]
		dst = append(dst, flagIf(st.Released, 1))
		dst = appendStr16(dst, st.Hold)
		dst = appendStr16(dst, st.State)
		dst = appendStr16(dst, st.Side)
		dst = appendU32(dst, uint32(st.PeerPoint))
		dst = appendU64(dst, st.Epoch)
		dst = appendU16(dst, uint16(st.Code))
		dst = appendStr16(dst, st.Error)
	}
	return endFrame(dst, lenAt)
}

// DecodeHoldStates parses a framed POST /v1/confirm or /v1/abort answer.
func DecodeHoldStates(data []byte) ([]HoldStateJSON, error) {
	return decodeList(data, wireStateMagic, 23, 0, func(r *wireReader, st *HoldStateJSON) {
		st.Released = r.u8("flags")&1 != 0
		st.Hold = r.str16("hold")
		st.State = r.str16("state")
		st.Side = r.str16("side")
		st.PeerPoint = r.i32("peer_point")
		st.Epoch = r.u64("epoch")
		st.Code = int(r.u16("code"))
		st.Error = r.str16("error")
	})
}

// --- lookups and cancels by id -------------------------------------------

// AppendIDFrame appends the request frame of a lookup or cancel of id.
func AppendIDFrame(dst []byte, id int) []byte {
	dst, lenAt := beginFrame(dst, wireIDMagic, 1)
	return endFrame(appendU64(dst, uint64(id)), lenAt)
}

// DecodeIDFrame parses the request frame of a lookup or cancel.
func DecodeIDFrame(data []byte) (int, error) {
	r, count, err := openFrame(data, wireIDMagic)
	if err == nil && count != 1 {
		err = fmt.Errorf("wire: %d ids in one lookup", count)
	}
	if err != nil {
		return 0, err
	}
	id := r.u64("id")
	if err := r.finish(1); err != nil {
		return 0, err
	}
	if id > math.MaxInt64 {
		return 0, fmt.Errorf("bad reservation id %d", id)
	}
	return int(id), nil
}

// --- the call stream -----------------------------------------------------

// The ops of the call stream, in the order of the format comment.
const (
	OpSubmit byte = 1 + iota
	OpBatch
	OpReserve
	OpConfirm
	OpAbort
	OpGet
	OpCancel
	numOps
)

// The codecs of an answer body.
const (
	CodecFrame byte = iota
	CodecJSON
)

// AppendCall appends one call of the stream: its tag, its op and the
// request frame.
func AppendCall(dst []byte, tag uint32, op byte, frame []byte) []byte {
	return append(append(appendU32(dst, tag), op), frame...)
}

// readCall reads one call off r, its frame into buf, grown as needed. An
// unknown op, a frame past MaxBinaryBatchBytes or a truncated call is an
// error: the stream cannot be read on behind it.
func readCall(r io.Reader, buf []byte) (tag uint32, op byte, frame []byte, err error) {
	var hdr [callHeaderSize]byte
	if n, err := io.ReadFull(r, hdr[:]); err != nil {
		if n > 0 {
			// Not a deadline between calls: the stream is out of step.
			err = fmt.Errorf("wire: call header cut after %d bytes: %v", n, err)
		}
		return 0, 0, buf, err
	}
	tag, op = binary.LittleEndian.Uint32(hdr[:]), hdr[4]
	if op == 0 || op >= numOps {
		return tag, op, buf, fmt.Errorf("wire: unknown op %d", op)
	}
	if frame, err = readFrame(r, buf); err != nil {
		err = fmt.Errorf("wire: call %d: %v", tag, noEOF(err))
	}
	return tag, op, frame, err
}

// appendAnswerHeader appends the head of one answer of the stream.
func appendAnswerHeader(dst []byte, tag uint32, status int, codec byte) []byte {
	return append(appendU16(appendU32(dst, tag), uint16(status)), codec)
}

// appendJSONFrame appends the body of a JSON answer: v encoded.
func appendJSONFrame(dst []byte, v any) []byte {
	dst = append(dst, wireJSONMagic...)
	lenAt := len(dst)
	dst = appendU32(dst, 0)
	blob, err := json.Marshal(v)
	if err != nil {
		blob, _ = json.Marshal(ErrorJSON{Error: err.Error()})
	}
	return endFrame(append(dst, blob...), lenAt)
}

// ReadAnswer reads one answer of the stream off r into fb, grown as
// needed, and returns its body: the answer frame for CodecFrame, the JSON
// text for CodecJSON. An unknown codec, a body past MaxBinaryBatchBytes or
// a truncated answer is an error.
func ReadAnswer(r io.Reader, fb *FrameBuf) (tag uint32, status int, codec byte, body []byte, err error) {
	var hdr [answerHeaderSize]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, 0, nil, err
	}
	tag = binary.LittleEndian.Uint32(hdr[:])
	status = int(binary.LittleEndian.Uint16(hdr[4:]))
	codec = hdr[6]
	if codec != CodecFrame && codec != CodecJSON {
		return tag, status, codec, nil, fmt.Errorf("wire: unknown answer codec %d", codec)
	}
	if fb.B, err = readFrame(r, fb.B); err != nil {
		return tag, status, codec, nil, noEOF(err)
	}
	body = fb.B
	if codec == CodecJSON {
		body, err = frameBody(body, wireJSONMagic)
	}
	return tag, status, codec, body, err
}

// noEOF turns a clean EOF inside a message into the truncation it is.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// --- replication stream --------------------------------------------------

func appendPos(dst []byte, p wal.Pos) []byte {
	return appendU64(appendU64(dst, p.Seg), uint64(p.Off))
}

func readPos(r *wireReader, what string) wal.Pos {
	p := wal.Pos{Seg: r.u64(what), Off: int64(r.u64(what))}
	if r.err == nil && p.Off < 0 {
		r.err = fmt.Errorf("wire: negative %s offset", what)
	}
	return p
}

// appendReplBatch appends the stream frame of one shipped batch.
func appendReplBatch(dst []byte, b *ShippedBatch) []byte {
	dst, lenAt := beginFrame(dst, wireBatchMagic, len(b.Events))
	dst = appendU64(dst, b.Epoch)
	dst = appendPos(dst, b.From)
	dst = appendPos(dst, b.Next)
	dst = appendPos(dst, b.End)
	dst = appendU64(dst, uint64(b.LagBytes))
	for _, ev := range b.Events {
		dst = append(appendU32(dst, uint32(len(ev))), ev...)
	}
	return endFrame(dst, lenAt)
}

// appendReplGone appends the frame that tells a follower its cursor was
// compacted away.
func appendReplGone(dst []byte) []byte {
	dst, lenAt := beginFrame(dst, wireGoneMagic, 0)
	return endFrame(dst, lenAt)
}

// appendReplReseed appends a re-seed: the gone frame, then snap's
// checkpoint frames, which the follower installs before the batches from
// the position snap covers.
func appendReplReseed(dst []byte, snap *Snapshot) ([]byte, error) {
	return snap.appendFrames(appendReplGone(dst))
}

// decodeReplFrame parses one stream frame: a shipped batch of at most
// pullClampRecords records, each 1 to wal.MaxRecordBytes long, or the gone
// frame. The batch's events alias frame.
func decodeReplFrame(frame []byte) (b ShippedBatch, gone bool, err error) {
	if len(frame) >= len(wireGoneMagic) && string(frame[:len(wireGoneMagic)]) == wireGoneMagic {
		r, count, err := openFrame(frame, wireGoneMagic)
		if err == nil {
			err = r.finish(count)
		}
		if err == nil && count != 0 {
			err = fmt.Errorf("wire: gone frame declares %d records", count)
		}
		return b, err == nil, err
	}
	r, count, err := openFrame(frame, wireBatchMagic)
	if err != nil {
		return b, false, err
	}
	if count > pullClampRecords {
		return b, false, fmt.Errorf("wire: batch of %d records exceeds limit %d", count, pullClampRecords)
	}
	b.Epoch = r.u64("epoch")
	b.From = readPos(&r, "from")
	b.Next = readPos(&r, "next")
	b.End = readPos(&r, "end")
	b.LagBytes = int64(r.u64("lag"))
	// A record is a u32 length and at least one byte.
	if r.err == nil && count > (len(r.data)-r.off)/5 {
		r.err = fmt.Errorf("wire: count %d exceeds body capacity", count)
	}
	if r.err != nil {
		return ShippedBatch{}, false, r.err
	}
	b.Events = make([][]byte, count)
	for i := range b.Events {
		n := r.u32("record length")
		if r.err == nil && (n == 0 || n > wal.MaxRecordBytes) {
			r.err = fmt.Errorf("wire: record length %d outside [1, %d]", n, wal.MaxRecordBytes)
		}
		b.Events[i] = r.bytes(int(n), "record")
		if r.err != nil {
			return ShippedBatch{}, false, fmt.Errorf("record %d: %w", i, r.err)
		}
	}
	if err := r.finish(count); err != nil {
		return ShippedBatch{}, false, err
	}
	return b, false, nil
}

// readFrame reads one frame of either stream from r into buf, grown as
// needed, and returns it; a length prefix past wireMaxBatchBytes is refused
// before anything is allocated for it.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	buf = slices.Grow(buf[:0], wireFrameHeaderSize)[:wireFrameHeaderSize]
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf, err
	}
	n := binary.LittleEndian.Uint32(buf[len(wireBatchMagic):])
	if n > wireMaxBatchBytes {
		return buf, fmt.Errorf("wire: frame of %d bytes exceeds %d", n, wireMaxBatchBytes)
	}
	buf = slices.Grow(buf, int(n))[:wireFrameHeaderSize+int(n)]
	_, err := io.ReadFull(r, buf[wireFrameHeaderSize:])
	return buf, err
}

// decodeReplAck parses a follower's cursor frame, which appendPos writes.
func decodeReplAck(b []byte) (wal.Pos, error) {
	if len(b) != wireAckBytes {
		return wal.Pos{}, fmt.Errorf("wire: cursor frame of %d bytes, want %d", len(b), wireAckBytes)
	}
	r := wireReader{data: b}
	p := readPos(&r, "cursor")
	return p, r.err
}

// --- buffers -------------------------------------------------------------

// FrameBuf is a pooled byte buffer for one framed exchange: a handler reads
// the request body into B and — the decoders having copied every string
// out — encodes its answer over the same bytes; the client encodes requests
// in one and reads answers into one.
type FrameBuf struct{ B []byte }

var frameBufPool = sync.Pool{New: func() any { return &FrameBuf{B: make([]byte, 0, 1024)} }}

// NewFrameBuf returns an empty buffer from the pool.
func NewFrameBuf() *FrameBuf {
	fb := frameBufPool.Get().(*FrameBuf)
	fb.B = fb.B[:0]
	return fb
}

// Release returns the buffer to the pool; nothing may read B afterwards.
// Releasing a nil buffer (a handler's, on its JSON path) does nothing.
func (fb *FrameBuf) Release() {
	// A rare huge list should not pin its megabytes in the pool.
	if fb != nil && cap(fb.B) <= 64<<10 {
		frameBufPool.Put(fb)
	}
}

// ReadBody fills B with all of r, a request body — framed or JSON — of at
// most MaxBinaryBatchBytes. size is the body's declared length, or negative
// when unknown.
func (fb *FrameBuf) ReadBody(r io.Reader, size int64) error {
	b := fb.B[:0]
	if size > int64(cap(b)) && size <= wireMaxBatchBytes {
		b = make([]byte, 0, size)
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		fb.B = b
		if len(b) > wireMaxBatchBytes {
			return fmt.Errorf("wire: body exceeds %d bytes", wireMaxBatchBytes)
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("read body: %w", err)
		}
	}
}
