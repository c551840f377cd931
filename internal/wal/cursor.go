package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// The cursor record: where a follower resumes pulling its primary's WAL.
//
// A follower saves it after every applied batch, which is once per
// acknowledged decision under synchronous replication, so it must cost a
// write, not an fsync. It lives in two alternating slots of one small
// preallocated file and is never fsynced, renamed or written under the
// log's append mutex. What keeps that sound is what a record says and how
// Open judges it:
//
//   - A record is {Primary, Local}: every primary record before Primary is
//     appended to this log, which then ended at Local. A save goes to the
//     slot that does not hold the newest record, so a torn or failed write
//     leaves the other slot intact — a process crash rewinds one batch.
//   - Open accepts the newest record whose CRC holds and whose Local is at
//     or before the frontier recovery found. A record that reached the disk
//     ahead of the appends it covers (only the OS decides write-back order,
//     under every SyncPolicy) is therefore refused, and the follower falls
//     back to the older slot or to the beginning of history: a power loss
//     can rewind the cursor, never carry it past the local log. Apply is
//     idempotent, so a rewind only re-delivers.
//   - A refused record is erased before the log takes appends; otherwise
//     the log would grow past its Local again and a later Open would accept
//     a Primary the re-delivery had not yet reached.
//
// Slots sit one sector apart so a torn sector cannot take both.
const (
	cursorFile      = "cursor.rec"
	cursorStride    = 512
	cursorFileBytes = 2 * cursorStride
	cursorRecBytes  = 48
	cursorMagic     = 0x31435747 // "GWC1", little-endian
)

// cursorRec is one slot's content: magic, seq, Primary, Local, CRC.
type cursorRec struct {
	seq            uint64
	primary, local Pos
}

// encode writes the record into b.
func (r cursorRec) encode(b *[cursorRecBytes]byte) {
	binary.LittleEndian.PutUint32(b[0:], cursorMagic)
	binary.LittleEndian.PutUint64(b[4:], r.seq)
	binary.LittleEndian.PutUint64(b[12:], r.primary.Seg)
	binary.LittleEndian.PutUint64(b[20:], uint64(r.primary.Off))
	binary.LittleEndian.PutUint64(b[28:], r.local.Seg)
	binary.LittleEndian.PutUint64(b[36:], uint64(r.local.Off))
	binary.LittleEndian.PutUint32(b[44:], crc32.Checksum(b[:44], castagnoli))
}

func decodeCursorRec(b []byte) (cursorRec, bool) {
	if len(b) < cursorRecBytes || binary.LittleEndian.Uint32(b[0:]) != cursorMagic ||
		binary.LittleEndian.Uint32(b[44:]) != crc32.Checksum(b[:44], castagnoli) {
		return cursorRec{}, false
	}
	return cursorRec{
		seq:     binary.LittleEndian.Uint64(b[4:]),
		primary: Pos{binary.LittleEndian.Uint64(b[12:]), int64(binary.LittleEndian.Uint64(b[20:]))},
		local:   Pos{binary.LittleEndian.Uint64(b[28:]), int64(binary.LittleEndian.Uint64(b[36:]))},
	}, true
}

// loadCursor is Open's read of the cursor record, judged against the
// frontier recovery just established. With no acceptable record the cursor
// stays zero: pull from the beginning.
func (l *Log) loadCursor(rec *Recovery) error {
	frontier := Pos{l.seg, l.off}
	blob, err := l.readMeta(cursorFile)
	if err != nil {
		return err
	}
	newest := -1
	var best cursorRec
	for slot := 0; slot*cursorStride < len(blob); slot++ {
		r, ok := decodeCursorRec(blob[slot*cursorStride:])
		if !ok {
			continue
		}
		if r.seq > l.curSeq {
			l.curSeq = r.seq
		}
		if frontier.Less(r.local) {
			clear(l.curBuf[:])
			if err := l.writeCursorSlot(slot, l.curBuf[:]); err != nil {
				return fmt.Errorf("wal: erase cursor record past the recovered frontier: %w", err)
			}
			rec.StaleCursors++
			continue
		}
		if newest < 0 || r.seq > best.seq {
			newest, best = slot, r
		}
	}
	if rec.StaleCursors > 0 {
		// Like the torn-tail repair, the erasure must be durable before the
		// log takes appends. Boot only: no save ever fsyncs.
		if err := l.curF.Sync(); err != nil {
			return fmt.Errorf("wal: erase cursor record past the recovered frontier: %w", err)
		}
	}
	if newest >= 0 {
		l.cursor = best.primary
		l.curSlot = 1 - newest
	}
	return nil
}

// writeCursorSlot is the one positioned write of the cursor file, which it
// opens — and, when new, sizes to both slots — on first use. Callers hold
// curMu or run before the log is shared.
func (l *Log) writeCursorSlot(slot int, b []byte) error {
	if l.curF == nil {
		path := filepath.Join(l.dir, cursorFile)
		f, err := l.fs.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if size, err := fileSize(l.fs, path); err != nil {
			f.Close()
			return err
		} else if size < cursorFileBytes {
			if _, err := f.Write(make([]byte, cursorFileBytes)); err != nil {
				f.Close()
				return err
			}
		}
		l.curF = f
	}
	if _, err := l.curF.Seek(int64(slot)*cursorStride, io.SeekStart); err != nil {
		return err
	}
	_, err := l.curF.Write(b)
	return err
}

// SaveCursor records that every primary record before primary is appended
// to this log, which then ended at local. It is one small write — no
// fsync — and takes neither the append mutex nor any caller's lock, so it
// is safe to call after releasing whatever ordered the appends: a save
// that lands out of order only makes the next boot resume earlier.
func (l *Log) SaveCursor(primary, local Pos) error {
	l.curMu.Lock()
	defer l.curMu.Unlock()
	if l.curClosed {
		return ErrClosed
	}
	rec := cursorRec{seq: l.curSeq + 1, primary: primary, local: local}
	rec.encode(&l.curBuf)
	if err := l.writeCursorSlot(l.curSlot, l.curBuf[:]); err != nil {
		return fmt.Errorf("wal: write cursor record: %w", err)
	}
	l.curSeq, l.curSlot, l.cursor = rec.seq, 1-l.curSlot, primary
	return nil
}

// Cursor reports the replication cursor: the one Open accepted, or the
// last one saved since. The zero Pos means none — pull from the beginning.
func (l *Log) Cursor() Pos {
	l.curMu.Lock()
	defer l.curMu.Unlock()
	return l.cursor
}

func (l *Log) closeCursor() {
	l.curMu.Lock()
	defer l.curMu.Unlock()
	l.curClosed = true
	if l.curF != nil {
		l.curF.Close()
		l.curF = nil
	}
}
