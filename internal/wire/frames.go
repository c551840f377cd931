package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"gridbw/internal/units"
	"gridbw/internal/wal"
)

const (
	flagDurable     = 1 << 0
	flagRelNotBefor = 1 << 1
	flagRelDeadline = 1 << 2

	flagAccepted = 1 << 0
	flagRouted   = 1 << 1

	kindError    = 0
	kindDecision = 1
)

// --- submissions ---------------------------------------------------------

func appendSubmission(dst []byte, ws *Submission) []byte {
	dst = append(dst, flagIf(ws.Durable, flagDurable)|
		flagIf(ws.RelNotBefore, flagRelNotBefor)|flagIf(ws.RelDeadline, flagRelDeadline))
	dst = appendU32(dst, uint32(ws.From))
	dst = appendU32(dst, uint32(ws.To))
	dst = appendF64(dst, float64(ws.Volume))
	dst = appendF64(dst, float64(ws.MaxRate))
	dst = appendF64(dst, float64(ws.NotBefore))
	dst = appendF64(dst, float64(ws.Deadline))
	return appendStr16(dst, ws.IdempotencyKey)
}

func readSubmission(r *reader, ws *Submission) {
	flags := r.u8("flags")
	ws.Durable = flags&flagDurable != 0
	ws.RelNotBefore = flags&flagRelNotBefor != 0
	ws.RelDeadline = flags&flagRelDeadline != 0
	ws.From = r.i32("from")
	ws.To = r.i32("to")
	ws.Volume = units.Volume(r.f64("volume"))
	ws.MaxRate = units.Bandwidth(r.f64("max_rate"))
	ws.NotBefore = units.Time(r.f64("not_before"))
	ws.Deadline = units.Time(r.f64("deadline"))
	ws.IdempotencyKey = r.str16("key")
}

// AppendBatchRequest appends the framed request for subs to dst and
// returns it.
func AppendBatchRequest(dst []byte, subs []Submission) []byte {
	return appendList(dst, reqMagic, subs, appendSubmission)
}

// AppendSubmitRequest appends the one-record frame a submit takes.
func AppendSubmitRequest(dst []byte, ws *Submission) []byte {
	dst, lenAt := beginFrame(dst, reqMagic, 1)
	return endFrame(appendSubmission(dst, ws), lenAt)
}

// DecodeBatchRequest parses a framed batch request. maxCount bounds the
// declared record count before any allocation (the server passes its
// MaxBatch; pass 0 for no bound).
func DecodeBatchRequest(data []byte, maxCount int) ([]Submission, error) {
	// A keyless record is 43 bytes.
	return decodeList(data, reqMagic, 43, 1, maxCount, readSubmission)
}

// DecodeSubmitRequest parses the one-record frame of a single submit; any
// other count is malformed.
func DecodeSubmitRequest(data []byte) (ws Submission, err error) {
	r, err := openOne(data, reqMagic, "submit")
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
var (
	states       = [...]string{StateBooked, StateActive, StateExpired, StateCancelled, StateRejected}
	durabilities = [...]string{"", DurabilityReplicated, DurabilityDegraded}
)

// codeOf is s's index in names, or fallback's when names lacks it.
func codeOf(names []string, s string, fallback byte) byte {
	for i, v := range names {
		if v == s {
			return byte(i)
		}
	}
	return fallback
}

// nameOf is the name of code c, or names[fallback] when c is unknown.
func nameOf(names []string, c byte, fallback byte) string {
	if int(c) < len(names) {
		return names[c]
	}
	return names[fallback]
}

// AppendErrorItem appends an answer item that fails its slot with msg.
func AppendErrorItem(dst []byte, msg string) []byte {
	return appendStr16(append(dst, kindError), msg)
}

// AppendDecision appends an answer item that carries rj.
func AppendDecision(dst []byte, rj *ReservationJSON) []byte {
	dst = append(dst, kindDecision)
	dst = appendU64(dst, uint64(rj.ID))
	dst = append(dst,
		flagIf(rj.Accepted, flagAccepted)|flagIf(rj.Routed == RoutedCrossShard, flagRouted),
		codeOf(states[:], rj.State, byte(len(states)-1)), codeOf(durabilities[:], rj.Durability, 0))
	dst = appendF64(dst, rj.RateBps)
	dst = appendF64(dst, rj.SigmaS)
	dst = appendF64(dst, rj.TauS)
	return appendStr16(dst, rj.Reason)
}

// BeginAnswer starts the answer frame of n items — to a submit, a batch, a
// lookup or a cancel — on dst: append each item with AppendDecision or
// AppendErrorItem, then close the frame with EndAnswer(dst, at).
func BeginAnswer(dst []byte, n int) (out []byte, at int) { return beginFrame(dst, respMagic, n) }

// EndAnswer closes the answer frame BeginAnswer started at.
func EndAnswer(dst []byte, at int) []byte { return endFrame(dst, at) }

// AppendBatchItems appends the answer frame for items already in the JSON
// item shape — the router's gather format: shard answers arrive as
// BatchItemJSON and leave in the caller's codec as they are.
func AppendBatchItems(dst []byte, items []BatchItemJSON) []byte {
	dst, at := BeginAnswer(dst, len(items))
	for i := range items {
		switch it := &items[i]; {
		case it.Reservation != nil:
			dst = AppendDecision(dst, it.Reservation)
		case it.Error != "":
			dst = AppendErrorItem(dst, it.Error)
		default:
			dst = AppendErrorItem(dst, "no result")
		}
	}
	return EndAnswer(dst, at)
}

// item is one decoded answer item, before it takes the pointer shape of
// BatchItemJSON.
type item struct {
	rj    ReservationJSON
	err   string
	isErr bool
}

func readItem(r *reader, it *item) {
	switch kind := r.u8("kind"); kind {
	case kindError:
		it.err, it.isErr = r.str16("error"), true
	case kindDecision:
		rj := &it.rj
		rj.ID = int(r.u64("id"))
		flags := r.u8("flags")
		rj.Accepted = flags&flagAccepted != 0
		if flags&flagRouted != 0 {
			rj.Routed = RoutedCrossShard
		}
		rj.State = nameOf(states[:], r.u8("state"), byte(len(states)-1))
		rj.Durability = nameOf(durabilities[:], r.u8("durability"), 0)
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

// DecodeBatchResponse parses an answer frame into the same per-item form
// the JSON face answers with, so callers classify results identically
// under either codec. (The human-readable Rate string is left empty — the
// frame carries RateBps only.) The reservations of one response share one
// allocation.
func DecodeBatchResponse(data []byte) ([]BatchItemJSON, error) {
	// kind + u16 length is the 3-byte minimum item.
	items, err := decodeList(data, respMagic, 3, 0, 0, readItem)
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

// DecodeSubmitResponse parses the one-item answer to a single submit,
// lookup or cancel.
func DecodeSubmitResponse(data []byte) (ReservationJSON, error) {
	r, err := openOne(data, respMagic, "answer")
	var it item
	if err == nil {
		readItem(&r, &it)
		err = r.finish(1)
	}
	if err == nil && it.isErr {
		err = fmt.Errorf("wire: error item answers one submission: %s", it.err)
	}
	if err != nil {
		return ReservationJSON{}, err
	}
	return it.rj, nil
}

// --- hold lists ----------------------------------------------------------

// AppendHoldReserveList appends the framed POST /v1/reserve body.
func AppendHoldReserveList(dst []byte, reqs []HoldReserveJSON) []byte {
	return appendList(dst, reserveMagic, reqs, func(dst []byte, q *HoldReserveJSON) []byte {
		dst = append(dst, flagIf(q.RelTimes, 1))
		dst = appendStr16(dst, q.Hold)
		dst = appendStr16(dst, q.Side)
		dst = appendU32(dst, uint32(q.Point))
		dst = appendU32(dst, uint32(q.PeerPoint))
		for _, v := range [...]float64{q.TTLS, q.VolumeBytes, q.MaxRateBps, q.NotBeforeS, q.DeadlineS, q.RateBps, q.SigmaS, q.TauS} {
			dst = appendF64(dst, v)
		}
		return dst
	})
}

// DecodeHoldReserveList parses a framed POST /v1/reserve body of at most
// maxCount holds.
func DecodeHoldReserveList(data []byte, maxCount int) ([]HoldReserveJSON, error) {
	return decodeList(data, reserveMagic, 77, 1, maxCount, func(r *reader, q *HoldReserveJSON) {
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
	return appendList(dst, reservedMagic, resps, func(dst []byte, a *HoldReserveResponseJSON) []byte {
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
		return appendStr16(dst, a.Error)
	})
}

// DecodeHoldReserveResults parses a framed POST /v1/reserve answer.
func DecodeHoldReserveResults(data []byte) ([]HoldReserveResponseJSON, error) {
	return decodeList(data, reservedMagic, 57, 0, 0, func(r *reader, a *HoldReserveResponseJSON) {
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
	return appendList(dst, refMagic, refs, func(dst []byte, ref *HoldRefJSON) []byte {
		id := 0
		if ref.ID != nil {
			id = *ref.ID
		}
		dst = append(dst, flagIf(ref.ID != nil, 1))
		dst = appendStr16(dst, ref.Hold)
		dst = appendU64(dst, uint64(id))
		return appendU64(dst, ref.Epoch)
	})
}

// DecodeHoldRefList parses a framed POST /v1/confirm or /v1/abort body of
// at most maxCount refs.
func DecodeHoldRefList(data []byte, maxCount int) ([]HoldRefJSON, error) {
	return decodeList(data, refMagic, 19, 1, maxCount, func(r *reader, ref *HoldRefJSON) {
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
	return appendList(dst, stateMagic, sts, func(dst []byte, st *HoldStateJSON) []byte {
		dst = append(dst, flagIf(st.Released, 1))
		dst = appendStr16(dst, st.Hold)
		dst = appendStr16(dst, st.State)
		dst = appendStr16(dst, st.Side)
		dst = appendU32(dst, uint32(st.PeerPoint))
		dst = appendU64(dst, st.Epoch)
		dst = appendU16(dst, uint16(st.Code))
		return appendStr16(dst, st.Error)
	})
}

// DecodeHoldStates parses a framed POST /v1/confirm or /v1/abort answer.
func DecodeHoldStates(data []byte) ([]HoldStateJSON, error) {
	return decodeList(data, stateMagic, 23, 0, 0, func(r *reader, st *HoldStateJSON) {
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
	dst, lenAt := beginFrame(dst, idMagic, 1)
	return endFrame(appendU64(dst, uint64(id)), lenAt)
}

// DecodeIDFrame parses the request frame of a lookup or cancel.
func DecodeIDFrame(data []byte) (int, error) {
	r, err := openOne(data, idMagic, "lookup")
	id := r.u64("id")
	if err == nil {
		err = r.finish(1)
	}
	if err == nil && id > math.MaxInt64 {
		err = fmt.Errorf("bad reservation id %d", id)
	}
	if err != nil {
		return 0, err
	}
	return int(id), nil
}

// --- the op table and the call stream ------------------------------------

// An Op is one call of the request plane: its code on the call stream.
type Op byte

// The ops, in the order of the format comment.
const (
	OpSubmit Op = 1 + iota
	OpBatch
	OpReserve
	OpConfirm
	OpAbort
	OpGet
	OpCancel
	numOps
)

// ops is the op table: each op's name, HTTP method and route, spelled once.
// The daemon and the router register their routes from it, the client takes
// its method and path from it, and the panic log its name.
var ops = [numOps]struct{ name, method, path string }{
	OpSubmit:  {"submit", "POST", "/v1/requests"},
	OpBatch:   {"batch", "POST", "/v1/batch"},
	OpReserve: {"reserve", "POST", "/v1/reserve"},
	OpConfirm: {"confirm", "POST", "/v1/confirm"},
	OpAbort:   {"abort", "POST", "/v1/abort"},
	OpGet:     {"get", "GET", "/v1/requests/{id}"},
	OpCancel:  {"cancel", "DELETE", "/v1/requests/{id}"},
}

// Valid reports whether op is in the table.
func (op Op) Valid() bool { return op > 0 && op < numOps }

// String names the op.
func (op Op) String() string {
	if op.Valid() {
		return ops[op].name
	}
	return fmt.Sprintf("op %d", op)
}

// Method is the op's HTTP method.
func (op Op) Method() string { return ops[op].method }

// Pattern is the op's route as an http.ServeMux pattern.
func (op Op) Pattern() string { return ops[op].method + " " + ops[op].path }

// ByID reports whether the op names a reservation by the id in its path
// rather than carrying a body.
func (op Op) ByID() bool { return strings.HasSuffix(ops[op].path, "{id}") }

// Path is the path of one call of op: the route, with id in place of {id}
// for a lookup or cancel.
func (op Op) Path(id int) string {
	if p := ops[op].path; op.ByID() {
		return strings.TrimSuffix(p, "{id}") + strconv.Itoa(id)
	}
	return ops[op].path
}

// The codecs of an answer body.
const (
	CodecFrame byte = iota
	CodecJSON
)

const (
	callHeaderSize = 5 // u32 tag | u8 op
	// AnswerHeaderBytes is the size of an answer's head: u32 tag | u16
	// status | u8 codec.
	AnswerHeaderBytes = 7
)

// AppendCall appends one call of the stream: its tag, its op and the
// request frame.
func AppendCall(dst []byte, tag uint32, op Op, frame []byte) []byte {
	return append(append(appendU32(dst, tag), byte(op)), frame...)
}

// ReadCall reads one call off r, its frame into buf, grown as needed. An
// unknown op, a frame past MaxFrameBytes or a truncated call is an error:
// the stream cannot be read on behind it.
func ReadCall(r io.Reader, buf []byte) (tag uint32, op Op, frame []byte, err error) {
	var hdr [callHeaderSize]byte
	if n, err := io.ReadFull(r, hdr[:]); err != nil {
		if n > 0 {
			// Not a deadline between calls: the stream is out of step.
			err = fmt.Errorf("wire: call header cut after %d bytes: %v", n, err)
		}
		return 0, 0, buf, err
	}
	tag, op = binary.LittleEndian.Uint32(hdr[:]), Op(hdr[4])
	if !op.Valid() {
		return tag, op, buf, fmt.Errorf("wire: unknown op %d", op)
	}
	if frame, err = ReadFrame(r, buf); err != nil {
		err = fmt.Errorf("wire: call %d: %v", tag, NoEOF(err))
	}
	return tag, op, frame, err
}

// AppendAnswerHeader appends the head of one answer of the stream.
func AppendAnswerHeader(dst []byte, tag uint32, status int, codec byte) []byte {
	return append(appendU16(appendU32(dst, tag), uint16(status)), codec)
}

// AppendJSONFrame appends the body of a JSON answer: v encoded.
func AppendJSONFrame(dst []byte, v any) []byte {
	dst = append(dst, jsonMagic...)
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
// text for CodecJSON. An unknown codec, a body past MaxFrameBytes or a
// truncated answer is an error.
func ReadAnswer(r io.Reader, fb *FrameBuf) (tag uint32, status int, codec byte, body []byte, err error) {
	var hdr [AnswerHeaderBytes]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, 0, nil, err
	}
	tag = binary.LittleEndian.Uint32(hdr[:])
	status = int(binary.LittleEndian.Uint16(hdr[4:]))
	codec = hdr[6]
	if codec != CodecFrame && codec != CodecJSON {
		return tag, status, codec, nil, fmt.Errorf("wire: unknown answer codec %d", codec)
	}
	if fb.B, err = ReadFrame(r, fb.B); err != nil {
		return tag, status, codec, nil, NoEOF(err)
	}
	body = fb.B
	if codec == CodecJSON {
		body, err = frameBody(body, jsonMagic)
	}
	return tag, status, codec, body, err
}

// --- replication stream --------------------------------------------------

// MaxShippedRecords is the most records one shipped batch may carry,
// whatever a pull asks for.
const MaxShippedRecords = 4096

// AckBytes is the size of a follower's cursor frame.
const AckBytes = 16

// ShippedBatch is one pull answer: the records between From and Next,
// fenced by the sender's epoch. End is the sender's append frontier and
// LagBytes the exact committed bytes between Next and End, so the
// follower can report how far behind it runs without guessing at segment
// sizes it cannot see. Events are the sender's WAL payloads verbatim, each
// one trace record (trace.AppendRecord); the JSON pull carries them as
// base64 strings.
type ShippedBatch struct {
	Epoch    uint64   `json:"epoch"`
	From     wal.Pos  `json:"from"`
	Next     wal.Pos  `json:"next"`
	End      wal.Pos  `json:"end"`
	LagBytes int64    `json:"lag_bytes"`
	Events   [][]byte `json:"events"`
}

// AppendPos appends a position: the follower's cursor frame, and the
// positions of a batch's header.
func AppendPos(dst []byte, p wal.Pos) []byte {
	return appendU64(appendU64(dst, p.Seg), uint64(p.Off))
}

func readPos(r *reader, what string) wal.Pos {
	p := wal.Pos{Seg: r.u64(what), Off: int64(r.u64(what))}
	if r.err == nil && p.Off < 0 {
		r.err = fmt.Errorf("wire: negative %s offset", what)
	}
	return p
}

// AppendReplBatch appends the stream frame of one shipped batch.
func AppendReplBatch(dst []byte, b *ShippedBatch) []byte {
	dst, lenAt := beginFrame(dst, batchMagic, len(b.Events))
	dst = appendU64(dst, b.Epoch)
	dst = AppendPos(dst, b.From)
	dst = AppendPos(dst, b.Next)
	dst = AppendPos(dst, b.End)
	dst = appendU64(dst, uint64(b.LagBytes))
	for _, ev := range b.Events {
		dst = append(appendU32(dst, uint32(len(ev))), ev...)
	}
	return endFrame(dst, lenAt)
}

// AppendReplGone appends the frame that tells a follower its cursor was
// compacted away.
func AppendReplGone(dst []byte) []byte {
	dst, lenAt := beginFrame(dst, goneMagic, 0)
	return endFrame(dst, lenAt)
}

// DecodeReplFrame parses one stream frame: a shipped batch of at most
// MaxShippedRecords records, each 1 to wal.MaxRecordBytes long, or the gone
// frame. The batch's events alias frame.
func DecodeReplFrame(frame []byte) (b ShippedBatch, gone bool, err error) {
	if len(frame) >= len(goneMagic) && string(frame[:len(goneMagic)]) == goneMagic {
		r, count, err := openFrame(frame, goneMagic)
		if err == nil {
			err = r.finish(count)
		}
		if err == nil && count != 0 {
			err = fmt.Errorf("wire: gone frame declares %d records", count)
		}
		return b, err == nil, err
	}
	r, count, err := openFrame(frame, batchMagic)
	if err != nil {
		return b, false, err
	}
	if count > MaxShippedRecords {
		return b, false, fmt.Errorf("wire: batch of %d records exceeds limit %d", count, MaxShippedRecords)
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

// DecodeReplAck parses a follower's cursor frame, which AppendPos writes.
func DecodeReplAck(b []byte) (wal.Pos, error) {
	if len(b) != AckBytes {
		return wal.Pos{}, fmt.Errorf("wire: cursor frame of %d bytes, want %d", len(b), AckBytes)
	}
	r := reader{data: b}
	p := readPos(&r, "cursor")
	return p, r.err
}
