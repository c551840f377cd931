package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"time"
)

// Reader reads a log's committed records for one reader that comes back
// for more: a replication stream reads every batch it ships through one.
// It keeps the segment it last read open and reads each batch into one
// buffer it reuses, so a batch the stream is caught up on costs one read
// call. A Reader is not safe for concurrent use; appends may run beside it.
type Reader struct {
	l   *Log
	f   File   // segment seg, open for reading; nil when none is
	seg uint64 // the segment f reads
	off int64  // f's file offset
	// buf holds the bytes the current Read took from the log, segment run
	// after segment run; out the payloads, which alias buf (or, after buf
	// grew, the array it grew from).
	buf      []byte
	out      [][]byte
	deadline Deadline // Wait's
	wake     Wake     // Wait's
}

// NewReader returns a reader of l. Close it when done.
func (l *Log) NewReader() *Reader { return &Reader{l: l} }

// Close releases the segment the reader holds open.
func (r *Reader) Close() error {
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	return err
}

// Read returns up to maxRecords record payloads starting at pos (zero Pos
// means the oldest data still on disk), the resolved start position, and
// the position after the last returned record; a batch stops after the
// record that reaches maxBytes. It reads only committed bytes, so it is
// safe against a concurrent appender; a bad frame inside the committed
// range is real corruption and errors. The payloads alias the reader's
// buffer: they stay valid until its next Read.
func (r *Reader) Read(pos Pos, maxRecords int, maxBytes int64) (payloads [][]byte, start, next Pos, err error) {
	l := r.l
	l.mu.Lock()
	end := Pos{l.seg, l.off}
	first := l.firstSeg
	l.mu.Unlock()
	if maxRecords <= 0 {
		maxRecords = 512
	}
	if maxBytes <= 0 {
		maxBytes = 1 << 20
	}
	if pos.IsZero() {
		pos = Pos{first, 0}
	}
	start = pos
	if pos.Seg < first {
		return nil, start, pos, ErrCompacted
	}
	if end.Less(pos) {
		return nil, start, pos, fmt.Errorf("wal: read position %v beyond end %v", pos, end)
	}
	r.buf, r.out = r.buf[:0], r.out[:0]
	var read int64
	for pos.Less(end) && len(r.out) < maxRecords && read < maxBytes {
		limit, err := l.segmentLimit(pos.Seg, end)
		if err != nil {
			return nil, start, pos, err
		}
		if pos.Off >= limit {
			pos = Pos{pos.Seg + 1, 0}
			continue
		}
		n, err := r.readFrames(pos, limit, maxRecords, maxBytes-read)
		if err != nil {
			r.Close() // its offset is unknown now
			return nil, start, pos, err
		}
		pos.Off += n
		read += n
	}
	return r.out, start, pos, nil
}

// readFrames reads the frames of segment at.Seg from at.Off on, short of
// limit, until maxRecords payloads are out or maxBytes are read, and
// returns the bytes read.
func (r *Reader) readFrames(at Pos, limit int64, maxRecords int, maxBytes int64) (int64, error) {
	if err := r.seek(at); err != nil {
		return 0, err
	}
	sp := span{base: len(r.buf), size: limit - at.Off, budget: maxBytes}
	var n int64
	for n < sp.size && len(r.out) < maxRecords && n < maxBytes {
		end, err := r.frame(&sp, n)
		if err != nil {
			return 0, fmt.Errorf("wal: corrupt committed frame in %s at %d: %w", segName(at.Seg), at.Off+n, err)
		}
		n = end
	}
	return n, nil
}

// span is the committed run of one segment a readFrames call reads: it
// starts at r.buf[base], holds size bytes, and budget is the byte budget
// left of the Read.
type span struct {
	base         int
	size, budget int64
}

// frame takes the frame n bytes into sp, appends its payload to r.out and
// returns where the frame ends.
func (r *Reader) frame(sp *span, n int64) (int64, error) {
	if n+headerSize > sp.size {
		return 0, fmt.Errorf("%w: header ends past the committed range", ErrTorn)
	}
	if err := r.fill(sp, n+headerSize); err != nil {
		return 0, err
	}
	hdr := r.buf[sp.base+int(n):]
	length := int64(binary.LittleEndian.Uint32(hdr[0:4]))
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	end := n + headerSize + length
	switch {
	case length == 0 || length > int64(r.l.opt.MaxRecordBytes):
		return 0, fmt.Errorf("%w: bad length %d", ErrTorn, length)
	case end > sp.size:
		return 0, fmt.Errorf("%w: frame ends past the committed range", ErrTorn)
	}
	if err := r.fill(sp, end); err != nil {
		return 0, err
	}
	payload := r.buf[sp.base+int(n)+headerSize : sp.base+int(end) : sp.base+int(end)]
	if crc32.Checksum(payload, castagnoli) != sum {
		return 0, fmt.Errorf("%w: CRC mismatch", ErrTorn)
	}
	r.out = append(r.out, payload)
	return end, nil
}

// fill makes at least want bytes of sp buffered, reading ahead as far as
// the committed span and the byte budget allow, so that one read takes a
// whole batch the stream is caught up on.
func (r *Reader) fill(sp *span, want int64) error {
	have := int64(len(r.buf) - sp.base)
	if have >= want {
		return nil
	}
	target := max(want, min(have+readBufferBytes, sp.size, sp.budget))
	grow := int(target - have)
	r.buf = slices.Grow(r.buf, grow)[:len(r.buf)+grow]
	_, err := io.ReadFull(r.f, r.buf[sp.base+int(have):])
	r.off += target - have
	switch {
	case err == io.EOF, err == io.ErrUnexpectedEOF:
		return fmt.Errorf("%w: cut short", ErrTorn)
	case err != nil:
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// seek points the reader's open segment at at, opening it first when the
// reader holds another one.
func (r *Reader) seek(at Pos) error {
	if r.f != nil && r.seg != at.Seg {
		r.Close()
	}
	if r.f == nil {
		f, err := r.l.fs.Open(r.l.segPath(at.Seg))
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				return ErrCompacted
			}
			return fmt.Errorf("wal: %w", err)
		}
		r.f, r.seg, r.off = f, at.Seg, 0
	}
	if r.off != at.Off {
		if _, err := r.f.Seek(at.Off, io.SeekStart); err != nil {
			r.Close()
			return fmt.Errorf("wal: %w", err)
		}
		r.off = at.Off
	}
	return nil
}

// Wait is Log.Wait with the reader's one deadline and wake channel, which
// it re-arms from call to call: a stream waits between every two batches it
// ships.
func (r *Reader) Wait(done <-chan struct{}, pos Pos, timeout time.Duration) bool {
	ok := r.l.wait(done, pos, r.deadline.Arm(timeout), &r.wake)
	r.deadline.Disarm()
	return ok
}

// ReadFrom is Read on a reader of its own, which it closes: the payloads
// it returns own their bytes, since no later Read reuses them. One-shot
// readers (a JSON pull, a drill) call it; a stream keeps a Reader.
func (l *Log) ReadFrom(pos Pos, maxRecords int, maxBytes int64) (payloads [][]byte, start, next Pos, err error) {
	r := l.NewReader()
	defer r.Close()
	return r.Read(pos, maxRecords, maxBytes)
}

// segmentLimit bounds reads of one segment to committed bytes: the whole
// file for finished segments, the append frontier for the current one.
func (l *Log) segmentLimit(seg uint64, end Pos) (int64, error) {
	if seg == end.Seg {
		return end.Off, nil
	}
	size, err := fileSize(l.fs, l.segPath(seg))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, ErrCompacted
		}
		return 0, err
	}
	return size, nil
}
