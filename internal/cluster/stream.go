package cluster

import (
	"encoding/binary"
	"fmt"

	"gridbw/internal/wal"
	"gridbw/internal/wire"
)

// The replication stream — GET /v1/replication/pull upgraded to
// ReplProtocol — carries one frame per shipped batch from the primary, and
// a bare 16-byte cursor back from the follower after each. Its frames are
// the request plane's (internal/wire: magic | u32 bodyLen | u32 count |
// count × record, all integers little-endian):
//
//	"GRB1" record: u32 length | payload    (the WAL payload, verbatim)
//	       header: u32 count | u64 epoch | pos from | pos next | pos end
//	               | i64 lagBytes, then count records
//	"GRG1" (gone): u32 count = 0 — the cursor was compacted away; a
//	               checkpoint follows (the daemon's snapshot.go: WAL
//	               frames, the header declaring its event count), then
//	               batches from the position the checkpoint covers
//	ack:           pos                      pos: u64 seg | i64 off

// ReplProtocol is the Upgrade token of the replication stream.
const ReplProtocol = "gridbw-repl/1"

const (
	// MaxShippedRecords is the most records one shipped batch may carry,
	// whatever a pull asks for.
	MaxShippedRecords = 4096
	// AckBytes is the size of a follower's cursor frame: one position.
	AckBytes = 16

	batchMagic       = "GRB1"
	goneMagic        = "GRG1"
	batchHeaderBytes = 8 + 3*AckBytes + 8 // epoch, from, next, end, lag
)

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

var le = binary.LittleEndian

// AppendPos appends a position: the follower's cursor frame, and the
// positions of a batch's header.
func AppendPos(dst []byte, p wal.Pos) []byte {
	return le.AppendUint64(le.AppendUint64(dst, p.Seg), uint64(p.Off))
}

// readPos reads the position at the head of b, which holds one.
func readPos(b []byte) wal.Pos { return wal.Pos{Seg: le.Uint64(b), Off: int64(le.Uint64(b[8:]))} }

// AppendReplBatch appends the stream frame of one shipped batch.
func AppendReplBatch(dst []byte, b *ShippedBatch) []byte {
	dst, lenAt := wire.BeginFrame(dst, batchMagic, len(b.Events))
	dst = le.AppendUint64(dst, b.Epoch)
	dst = AppendPos(AppendPos(AppendPos(dst, b.From), b.Next), b.End)
	dst = le.AppendUint64(dst, uint64(b.LagBytes))
	for _, ev := range b.Events {
		dst = append(le.AppendUint32(dst, uint32(len(ev))), ev...)
	}
	return wire.EndFrame(dst, lenAt)
}

// AppendReplGone appends the frame that tells a follower its cursor was
// compacted away.
func AppendReplGone(dst []byte) []byte {
	dst, lenAt := wire.BeginFrame(dst, goneMagic, 0)
	return wire.EndFrame(dst, lenAt)
}

// DecodeReplFrame parses one stream frame: a shipped batch of at most
// MaxShippedRecords records, each 1 to wal.MaxRecordBytes long, or the gone
// frame. The batch's events alias frame.
func DecodeReplFrame(frame []byte) (b ShippedBatch, gone bool, err error) {
	if gone, err = DecodeReplFrameInto(frame, &b); err != nil {
		return ShippedBatch{}, false, err
	}
	return b, gone, nil
}

// DecodeReplFrameInto is DecodeReplFrame into *b, whose Events backing
// array it reuses: a follower decodes every frame of its stream into one
// batch. A gone frame, or a frame it refuses, leaves *b empty.
func DecodeReplFrameInto(frame []byte, b *ShippedBatch) (gone bool, err error) {
	*b = ShippedBatch{Events: b.Events[:0]}
	if len(frame) >= len(goneMagic) && string(frame[:len(goneMagic)]) == goneMagic {
		body, count, err := wire.OpenFrame(frame, goneMagic)
		if err == nil && (count != 0 || len(body) != 0) {
			err = fmt.Errorf("cluster: gone frame declares %d records and %d more bytes", count, len(body))
		}
		return err == nil, err
	}
	body, count, err := wire.OpenFrame(frame, batchMagic)
	switch {
	case err != nil:
		return false, err
	case count > MaxShippedRecords:
		return false, fmt.Errorf("cluster: batch of %d records exceeds limit %d", count, MaxShippedRecords)
	case len(body) < batchHeaderBytes:
		return false, fmt.Errorf("cluster: batch header cut at %d bytes", len(body))
	// A record is a u32 length and at least one byte.
	case count > (len(body)-batchHeaderBytes)/5:
		return false, fmt.Errorf("cluster: count %d exceeds body capacity", count)
	}
	head := ShippedBatch{
		Epoch: le.Uint64(body), From: readPos(body[8:]), Next: readPos(body[24:]), End: readPos(body[40:]),
		LagBytes: int64(le.Uint64(body[56:])), Events: b.Events,
	}
	if min(head.From.Off, head.Next.Off, head.End.Off) < 0 {
		return false, fmt.Errorf("cluster: negative offset in batch positions %v, %v, %v", head.From, head.Next, head.End)
	}
	body = body[batchHeaderBytes:]
	for i := range count {
		if len(body) < 4 {
			return false, fmt.Errorf("cluster: record %d: length cut", i)
		}
		n := int(le.Uint32(body))
		if n == 0 || n > wal.MaxRecordBytes || n > len(body)-4 {
			return false, fmt.Errorf("cluster: record %d: length %d outside [1, %d] or past the frame", i, n, wal.MaxRecordBytes)
		}
		head.Events, body = append(head.Events, body[4:4+n]), body[4+n:]
	}
	if len(body) != 0 {
		return false, fmt.Errorf("cluster: %d trailing bytes after %d records", len(body), count)
	}
	*b = head
	return false, nil
}

// DecodeReplAck parses a follower's cursor frame, which AppendPos writes.
func DecodeReplAck(b []byte) (wal.Pos, error) {
	if len(b) != AckBytes {
		return wal.Pos{}, fmt.Errorf("cluster: cursor frame of %d bytes, want %d", len(b), AckBytes)
	}
	p := readPos(b)
	if p.Off < 0 {
		return p, fmt.Errorf("cluster: negative cursor offset %d", p.Off)
	}
	return p, nil
}
