package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// The WAL record: the one payload format of the log, the replication
// stream and the checkpoint's event frames. AppendRecord is its only
// encoder and DecodeRecord its only decoder.
//
//	version  1 byte, RecordVersion
//	kind     1 byte, an index into recordKinds
//	request  zigzag varint
//	ingress  zigzag varint (a hold's -1 point included)
//	egress   zigzag varint
//	mask     1 byte: bit i set when float i is present (its bits non-zero)
//	floats   the raw IEEE-754 bits of each present float, 8 bytes little
//	         endian, in the order At, RateBps, SigmaS, TauS, VolumeB,
//	         MaxRateBps, ExpireS
//	reason, key, hold, side
//	         each a uvarint length and that many raw bytes
//
// Every field has exactly one encoding, so a record the decoder accepts
// re-encodes to the same bytes.

// RecordVersion is the first byte of a record.
const RecordVersion = 0x01

// errJSONRecord refuses a record whose first byte is '{': a JSON-encoded
// Event, as builds older than the binary record wrote them. Those builds
// are below the upgrade floor, and their log is not read.
var errJSONRecord = errors.New("trace: record: a JSON record from a build older than the binary WAL record (version 1), the upgrade floor: wipe the WAL directory and re-seed the node from a current primary")

// recordKinds lists the event kinds a record can carry; a record stores
// the index. Append only: the index is on disk.
var recordKinds = [...]string{
	EventAccept, EventReject, EventCancel, EventExpire, EventRestore, EventPanic, EventPromote,
	EventHoldReserve, EventHoldConfirm, EventHoldAbort, EventHoldExpire, EventHoldRelease,
}

const recordFloats = 7

// recordFloatFields lists the event's floats in record order.
func recordFloatFields(ev *Event) [recordFloats]*float64 {
	return [recordFloats]*float64{&ev.At, &ev.RateBps, &ev.SigmaS, &ev.TauS, &ev.VolumeB, &ev.MaxRateBps, &ev.ExpireS}
}

func recordKindCode(kind string) (byte, bool) {
	for i, k := range recordKinds {
		if k == kind {
			return byte(i), true
		}
	}
	return 0, false
}

// AppendRecord appends ev's WAL record to dst. An event of a kind the
// record has no code for, or with a float that is NaN or infinite, is an
// error, and dst is returned as it was.
func AppendRecord(dst []byte, ev *Event) ([]byte, error) {
	code, ok := recordKindCode(ev.Kind)
	if !ok {
		return dst, fmt.Errorf("trace: record: unknown event kind %q", ev.Kind)
	}
	start := len(dst)
	dst = append(dst, RecordVersion, code)
	dst = binary.AppendVarint(dst, int64(ev.Request))
	dst = binary.AppendVarint(dst, int64(ev.Ingress))
	dst = binary.AppendVarint(dst, int64(ev.Egress))
	maskAt := len(dst)
	dst = append(dst, 0)
	var mask byte
	for i, f := range recordFloatFields(ev) {
		if math.IsNaN(*f) || math.IsInf(*f, 0) {
			return dst[:start], fmt.Errorf("trace: record: non-finite float %v", *f)
		}
		if bits := math.Float64bits(*f); bits != 0 {
			mask |= 1 << i
			dst = binary.LittleEndian.AppendUint64(dst, bits)
		}
	}
	dst[maskAt] = mask
	for _, s := range [...]string{ev.Reason, ev.Key, ev.Hold, ev.Side} {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	return dst, nil
}

// DecodeRecord decodes one WAL record into ev, overwriting all of it. A
// record is checked field by field: a bound, a kind, a float or a
// varint out of its one encoding, or a byte past the last field, refuses
// it. Strings are copied out of p, which the caller may reuse.
func DecodeRecord(p []byte, ev *Event) error {
	var d Decoder
	return d.Decode(p, ev)
}

// Decoder is DecodeRecord for a stream of records: a record whose reason or
// hold side spells the last one it decoded gets that string back instead of
// a copy. A replica's stream repeats a handful of refusal reasons and the
// two sides, so a decoder kept for the stream soon copies nothing but keys
// and hold keys. The zero Decoder is ready; it is not safe for concurrent
// use.
type Decoder struct {
	reason, side string
}

// Decode decodes one WAL record into ev, as DecodeRecord does.
func (d *Decoder) Decode(p []byte, ev *Event) error {
	*ev = Event{}
	if len(p) > 0 && p[0] == '{' {
		return errJSONRecord
	}
	r := recordReader{p: p}
	if v := r.byte(); r.err == nil && v != RecordVersion {
		return fmt.Errorf("trace: record: version %d, want %d", v, RecordVersion)
	}
	if code := r.byte(); r.err == nil {
		if int(code) >= len(recordKinds) {
			return fmt.Errorf("trace: record: unknown kind code %d", code)
		}
		ev.Kind = recordKinds[code]
	}
	ev.Request = r.int()
	ev.Ingress = r.int()
	ev.Egress = r.int()
	mask := r.byte()
	if r.err == nil && mask>>recordFloats != 0 {
		return fmt.Errorf("trace: record: float mask %#x has unknown bits", mask)
	}
	for i, f := range recordFloatFields(ev) {
		if r.err != nil || mask&(1<<i) == 0 {
			continue
		}
		bits := r.u64()
		*f = math.Float64frombits(bits)
		if r.err == nil && (bits == 0 || math.IsNaN(*f) || math.IsInf(*f, 0)) {
			r.err = fmt.Errorf("float %d has bits %#x", i, bits)
		}
	}
	ev.Reason = r.stringLike(&d.reason)
	ev.Key = r.string()
	ev.Hold = r.string()
	ev.Side = r.stringLike(&d.side)
	if r.err == nil && len(r.p) != 0 {
		r.err = fmt.Errorf("%d bytes past the last field", len(r.p))
	}
	if r.err != nil {
		return fmt.Errorf("trace: record: %w", r.err)
	}
	return nil
}

var errRecordShort = errors.New("cut short")

// recordReader consumes a binary record; the first error sticks and every
// later read returns a zero value.
type recordReader struct {
	p   []byte
	err error
}

func (r *recordReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.p) == 0 {
		r.err = errRecordShort
		return 0
	}
	b := r.p[0]
	r.p = r.p[1:]
	return b
}

func (r *recordReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.p) < 8 {
		r.err = errRecordShort
		return 0
	}
	v := binary.LittleEndian.Uint64(r.p)
	r.p = r.p[8:]
	return v
}

// uvarint reads a varint in its shortest form: a longer one (a trailing
// zero byte) would not re-encode to the same bytes.
func (r *recordReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.p)
	switch {
	case n == 0:
		r.err = errRecordShort
	case n < 0 || (n > 1 && r.p[n-1] == 0):
		r.err = errors.New("malformed varint")
	default:
		r.p = r.p[n:]
	}
	return v
}

func (r *recordReader) int() int {
	u := r.uvarint()
	v := int64(u>>1) ^ -int64(u&1) // zigzag, as binary.AppendVarint writes it
	if r.err == nil && int64(int(v)) != v {
		r.err = fmt.Errorf("integer %d overflows int", v)
	}
	return int(v)
}

func (r *recordReader) string() string { return string(r.bytes()) }

// stringLike reads a string, handing back *last when it spells the same
// bytes, and keeps a new non-empty string in *last.
func (r *recordReader) stringLike(last *string) string {
	b := r.bytes()
	if string(b) == *last {
		return *last
	}
	s := string(b)
	if s != "" {
		*last = s
	}
	return s
}

// bytes reads a length-prefixed field, aliasing the record.
func (r *recordReader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.p)) {
		r.err = errRecordShort
		return nil
	}
	b := r.p[:n]
	r.p = r.p[n:]
	return b
}
