// Package wire is the byte formats gridbw processes speak to each other:
// the request plane's frames, its call stream, the replication stream, the
// request and answer shapes both faces carry, and the op table that names
// each call's code, method and path once. It holds pure codecs, no server:
// the client and the load generator link it without linking the daemon.
//
// Every call one gridbw process makes on another's request plane travels
// in length-prefixed binary frames when the request Content-Type is
// ContentType, and is answered in them: encoding/json on both ends cost
// more than the admission it carried. JSON, for curl, is a codec in front
// of the same call (the daemon's jsonface.go).
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
// shapes.go, in declaration order:
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
// The call stream — any framed call upgraded to CallProtocol — carries
// tagged calls up and tagged answers down, pipelined: a caller may send
// call after call without waiting, and the answers come back in whatever
// order the calls finish. Tag 0 is the call that upgraded the connection,
// answered first; the caller picks every later tag.
//
//	call:   u32 tag | u8 op | frame       op: its code in the op table
//	                                      (frames.go); frame: its request
//	                                      frame
//	answer: u32 tag | u16 status | u8 codec | body
//	        codec 0: body is the op's answer frame, as over HTTP
//	        codec 1: body is "GBJ1" | u32 len | JSON — the error envelope
//	                 (with "retry_after_s" on a 429) or a 409 cancel's
//	                 reservation
//
// status is the HTTP status the same call would get, so every rule the
// client keys on holds on either carrier. A frame longer than
// MaxFrameBytes, an unknown op or a truncated call ends the stream.
//
// The replication stream — GET /v1/replication/pull upgraded to
// ReplProtocol — carries one frame per shipped batch from the primary, and
// a bare 16-byte cursor back from the follower after each:
//
//	"GRB1" record: u32 length | payload    (the WAL payload, verbatim)
//	       header: u32 count | u64 epoch | pos from | pos next | pos end
//	               | i64 lagBytes, then count records
//	"GRG1" (gone): u32 count = 0 — the cursor was compacted away; a
//	               checkpoint follows (the daemon's snapshot.go: WAL
//	               frames, the header declaring its event count), then
//	               batches from the position the checkpoint covers
//	ack:           pos                      pos: u64 seg | i64 off
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"gridbw/internal/trace"
)

// ContentType is the request Content-Type that selects the frames on every
// route that has them; the answer carries it back.
const ContentType = "application/x-gridbw-batch"

// The Upgrade tokens of the two streams.
const (
	CallProtocol = "gridbw-call/1"
	ReplProtocol = "gridbw-repl/1"
)

// MaxFrameBytes caps a framed body, and any one frame on either stream:
// generous for any in-limit list (records are ~50-80 bytes plus keys),
// small enough that a garbage length prefix cannot balloon memory. A
// shipped batch stops at the pull's byte bound plus one record, far below.
const MaxFrameBytes = 8 << 20

// MaxKeyBytes bounds an idempotency key, a hold key and a hold side: what a
// str16 can carry. It is not a knob. Both faces and the core refuse a
// longer one, and the client refuses it before encoding, so no key is ever
// cut; a WAL record with every string at this bound still fits
// wal.MaxRecordBytes.
const MaxKeyBytes = math.MaxUint16

const (
	reqMagic      = "GBB1"
	respMagic     = "GBR1"
	reserveMagic  = "GHQ1"
	reservedMagic = "GHA1"
	refMagic      = "GHF1"
	stateMagic    = "GHS1"
	batchMagic    = "GRB1"
	goneMagic     = "GRG1"
	idMagic       = "GBI1"
	jsonMagic     = "GBJ1"

	frameHeaderSize = 8 // magic | u32 bodyLen
)

// CheckKey refuses a key (or a hold side) a str16 cannot carry; what names
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

func appendU16(dst []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(dst, v) }
func appendU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }
func appendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }
func appendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
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

// appendList appends the frame of items, each by record.
func appendList[T any](dst []byte, magic string, items []T, record func([]byte, *T) []byte) []byte {
	dst, lenAt := beginFrame(dst, magic, len(items))
	for i := range items {
		dst = record(dst, &items[i])
	}
	return endFrame(dst, lenAt)
}

// reader walks a frame body with bounds checks; after any failure r.err is
// set and further reads return zero values.
type reader struct {
	data []byte
	off  int
	err  error
}

func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: truncated %s at offset %d", what, r.off)
	}
}

func (r *reader) u8(what string) byte {
	if r.err != nil || r.off+1 > len(r.data) {
		r.fail(what)
		return 0
	}
	v := r.data[r.off]
	r.off++
	return v
}

func (r *reader) u16(what string) uint16 {
	if r.err != nil || r.off+2 > len(r.data) {
		r.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint16(r.data[r.off:])
	r.off += 2
	return v
}

func (r *reader) u32(what string) uint32 {
	if r.err != nil || r.off+4 > len(r.data) {
		r.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64(what string) uint64 {
	if r.err != nil || r.off+8 > len(r.data) {
		r.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v
}

func (r *reader) f64(what string) float64 { return math.Float64frombits(r.u64(what)) }

// i32 reads a point index: an int that travels as its low 32 bits.
func (r *reader) i32(what string) int { return int(int32(r.u32(what))) }

// bytes takes the next n bytes, or fails the read and returns nil.
func (r *reader) bytes(n int, what string) []byte {
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
func (r *reader) str16(what string) string {
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
func openFrame(data []byte, magic string) (reader, int, error) {
	body, err := frameBody(data, magic)
	r := reader{data: body}
	if err != nil {
		return r, 0, err
	}
	count := int(r.u32("count"))
	return r, count, r.err
}

// finish reports what went wrong reading a frame's count records, a frame
// that goes on behind them included.
func (r *reader) finish(count int) error {
	if r.err == nil && r.off != len(r.data) {
		return fmt.Errorf("wire: %d trailing bytes after %d records", len(r.data)-r.off, count)
	}
	return r.err
}

// decodeList parses one frame into its records. Its count must lie in
// [minCount, maxCount] (maxCount 0: no bound), checked before any
// allocation, and minRecord is the shortest encoding of one record, so a
// count the body cannot hold is rejected before allocating for it too. A
// request list has minCount 1: an empty one is malformed.
func decodeList[T any](data []byte, magic string, minRecord, minCount, maxCount int, record func(*reader, *T)) ([]T, error) {
	r, count, err := openFrame(data, magic)
	switch {
	case err != nil:
		return nil, err
	case count < minCount:
		return nil, fmt.Errorf("wire: empty list")
	case maxCount > 0 && count > maxCount:
		return nil, fmt.Errorf("wire: list of %d exceeds limit %d", count, maxCount)
	case count > len(r.data)/minRecord:
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

// openOne checks the header of the one-record frame of a single call; any
// other count is malformed, and what names the record in the error.
func openOne(data []byte, magic, what string) (reader, error) {
	r, count, err := openFrame(data, magic)
	if err == nil && count != 1 {
		err = fmt.Errorf("wire: %d records in one %s", count, what)
	}
	return r, err
}

// ReadFrame reads one frame of either stream from r into buf, grown as
// needed, and returns it; a length prefix past MaxFrameBytes is refused
// before anything is allocated for it.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	buf = slices.Grow(buf[:0], frameHeaderSize)[:frameHeaderSize]
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf, err
	}
	n := binary.LittleEndian.Uint32(buf[len(batchMagic):])
	if n > MaxFrameBytes {
		return buf, fmt.Errorf("wire: frame of %d bytes exceeds %d", n, MaxFrameBytes)
	}
	buf = slices.Grow(buf, int(n))[:frameHeaderSize+int(n)]
	_, err := io.ReadFull(r, buf[frameHeaderSize:])
	return buf, err
}

// NoEOF turns a clean EOF inside a message into the truncation it is.
func NoEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

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
// most MaxFrameBytes. size is the body's declared length, or negative when
// unknown.
func (fb *FrameBuf) ReadBody(r io.Reader, size int64) error {
	b := fb.B[:0]
	if size > int64(cap(b)) && size <= MaxFrameBytes {
		b = make([]byte, 0, size)
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		fb.B = b
		if len(b) > MaxFrameBytes {
			return fmt.Errorf("wire: body exceeds %d bytes", MaxFrameBytes)
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("read body: %w", err)
		}
	}
}
