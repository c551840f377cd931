// Package wal is the durable write-ahead decision log of gridbwd: a
// segmented, CRC-framed append log whose recovery semantics match a
// SIGKILL mid-write.
//
// Every record is framed as
//
//	[4B little-endian payload length][4B CRC32-Castagnoli of payload][payload]
//
// so any prefix of the log is self-validating: recovery scans frames
// until the first short or corrupt one, truncates the file there, and
// reports how many complete records survived. A torn tail — the normal
// aftermath of a crash mid-append — costs at most the records past the
// last fsync point, never the whole log. The same codec frames a
// checkpoint (AppendFrame), and one read-only reader (FrameReader,
// ReadDir) serves every reader that must not repair what it reads.
//
// A live log pays per batch, not per record: AppendBatch writes a group
// of records in one write (and under SyncAlways one fsync), and a
// replication stream reads through one Reader, which keeps its segment
// open and its buffer. Appends wake only the readers parked in Wait.
//
// The log rotates into numbered segment files at a size threshold, so
// compaction after a snapshot is an O(1) unlink of whole segments rather
// than a rewrite, and replication readers address records by stable
// (segment, offset) positions that survive compaction of older segments.
//
// Durability is a policy, not a constant: SyncAlways fsyncs every append
// (nothing acknowledged is ever lost), SyncInterval fsyncs on a timer
// (bounded loss window, much cheaper), SyncNever leaves it to the OS.
// Rotation always fsyncs the finished segment, whatever the policy.
package wal

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

const (
	headerSize = 8
	// segPrefix/segSuffix frame the decimal segment index in file names:
	// wal-00000001.seg, wal-00000002.seg, ...
	segPrefix = "wal-"
	segSuffix = ".seg"

	defaultSegmentBytes = 8 << 20
	defaultSyncInterval = 100 * time.Millisecond
	// readBufferBytes bounds one read of a segment: ReadDir's buffer, and
	// how far a Reader reads ahead.
	readBufferBytes = 256 << 10
)

// MaxRecordBytes is the default bound on one record (Options.MaxRecordBytes)
// — and so on one payload a replication stream may carry.
const MaxRecordBytes = 1 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Errors of the reading and appending paths.
var (
	// ErrClosed reports an operation on a closed log.
	ErrClosed = errors.New("wal: closed")
	// ErrCompacted reports a read position whose segment was removed by
	// compaction; the reader must resync from a snapshot instead.
	ErrCompacted = errors.New("wal: position compacted away")
	// ErrTooLarge reports an append beyond the record size bound.
	ErrTooLarge = errors.New("wal: record exceeds size bound")
	// ErrPoisoned reports an append or sync on a log that fail-stopped
	// after an earlier write or fsync failure. After a failed fsync the
	// kernel may have silently dropped the dirty pages while clearing the
	// error (the fsyncgate hazard), so retrying could "succeed" without
	// the data ever reaching disk; and after a short write the file
	// offset no longer matches the log's framing. The only sound recovery
	// is a restart, which re-runs torn-tail recovery against what is
	// actually on disk.
	ErrPoisoned = errors.New("wal: poisoned by prior I/O failure, restart to recover")
)

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs on every append: an acknowledged record is
	// durable, full stop.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a background timer: a crash loses at most
	// the records appended since the last tick.
	SyncInterval
	// SyncNever never fsyncs explicitly; the OS flushes when it likes.
	SyncNever
)

// ParseSyncPolicy maps the -wal-fsync flag values onto a SyncPolicy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always", "":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or never)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// Pos addresses a byte boundary in the log: Off bytes into segment Seg.
// Positions are totally ordered and stable across restarts; the zero Pos
// means "the beginning of whatever the log still holds".
type Pos struct {
	Seg uint64 `json:"seg"`
	Off int64  `json:"off"`
}

// Less orders positions.
func (p Pos) Less(q Pos) bool {
	if p.Seg != q.Seg {
		return p.Seg < q.Seg
	}
	return p.Off < q.Off
}

// IsZero reports the "start of log" sentinel.
func (p Pos) IsZero() bool { return p.Seg == 0 && p.Off == 0 }

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Seg, p.Off) }

// Options tunes a Log; zero values mean the defaults.
type Options struct {
	// SegmentBytes is the rotation threshold; a record never splits
	// across segments. Default 8 MiB.
	SegmentBytes int64
	// Policy is the fsync discipline; default SyncAlways.
	Policy SyncPolicy
	// Interval is the SyncInterval tick; default 100ms.
	Interval time.Duration
	// MaxRecordBytes bounds one record; default 1 MiB. Recovery treats a
	// larger length field as corruption, so both sides must agree.
	MaxRecordBytes int
	// FS is the filesystem seam; default the real OS filesystem. Tests
	// inject faults.DiskFS here.
	FS FS
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = defaultSegmentBytes
	}
	if o.Interval <= 0 {
		o.Interval = defaultSyncInterval
	}
	if o.MaxRecordBytes <= 0 {
		o.MaxRecordBytes = MaxRecordBytes
	}
	if o.FS == nil {
		o.FS = OSFS{}
	}
	return o
}

// Recovery reports what Open found and repaired.
type Recovery struct {
	// Records is how many complete, CRC-valid records survived.
	Records uint64
	// TruncatedBytes is how much of the torn segment was cut away.
	TruncatedBytes int64
	// TornSegment is the segment that was truncated; 0 when the log was
	// clean.
	TornSegment uint64
	// DroppedSegments counts whole segments removed because they sat
	// beyond a torn middle segment (disk corruption, not a crash).
	DroppedSegments int
	// StaleCursors counts cursor records erased because they claimed a
	// local frontier past the recovered one — the trace of a power loss
	// that kept the record and lost the appends it covered.
	StaleCursors int
}

// Clean reports whether recovery found nothing to repair.
func (r Recovery) Clean() bool { return r.TornSegment == 0 && r.DroppedSegments == 0 }

func (r Recovery) String() string {
	s := fmt.Sprintf("%d records, clean tail", r.Records)
	if !r.Clean() {
		s = fmt.Sprintf("%d records, truncated %d bytes of segment %d (%d later segments dropped)",
			r.Records, r.TruncatedBytes, r.TornSegment, r.DroppedSegments)
	}
	if r.StaleCursors > 0 {
		s += fmt.Sprintf(", erased %d replication cursor records past the recovered frontier", r.StaleCursors)
	}
	return s
}

// Log is a segmented append log. Append, Sync and Close serialize behind
// one mutex; ReadFrom and Wait are safe concurrently with appends.
type Log struct {
	dir string
	opt Options
	fs  FS

	mu       sync.Mutex
	f        File
	seg      uint64 // segment currently open for append
	off      int64  // append offset within seg
	firstSeg uint64 // oldest segment still on disk
	synced   Pos    // durable up to here
	records  uint64 // complete records in the log (recovered + appended)
	// waiters are the Waits parked on the next move of the frontier.
	waiters  parked
	closed   bool
	poisoned error // sticky fail-stop cause; nil while healthy
	// one is Append's batch, reused under mu: File.Write keeps no reference
	// to the bytes it is given.
	one Batch

	stopSync chan struct{}
	syncDone chan struct{}

	// The follower's cursor record (cursor.go), guarded by curMu, which is
	// never held together with mu.
	curMu     sync.Mutex
	curF      File                 // the record file, opened by the first write
	curSeq    uint64               // sequence of the newest record written
	curSlot   int                  // slot the next record goes to
	curBuf    [cursorRecBytes]byte // the record being written
	cursor    Pos
	curClosed bool
}

func segName(seg uint64) string { return fmt.Sprintf("%s%08d%s", segPrefix, seg, segSuffix) }

func (l *Log) segPath(seg uint64) string { return filepath.Join(l.dir, segName(seg)) }

// Open creates or recovers the log in dir. Recovery scans every segment
// in order, truncates the first torn frame and unlinks anything beyond
// it, so the survivor set is always a prefix of what was appended.
func Open(dir string, opt Options) (*Log, Recovery, error) {
	opt = opt.withDefaults()
	l := &Log{dir: dir, opt: opt, fs: opt.FS}
	var rec Recovery
	if err := l.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, rec, fmt.Errorf("wal: %w", err)
	}
	segs, err := listSegments(l.fs, dir)
	if err != nil {
		return nil, rec, err
	}
	if len(segs) == 0 {
		l.seg, l.firstSeg = 1, 1
		if l.f, err = l.fs.OpenFile(l.segPath(1), os.O_CREATE|os.O_WRONLY, 0o644); err != nil {
			return nil, rec, fmt.Errorf("wal: %w", err)
		}
		if err := l.fs.SyncDir(dir); err != nil {
			l.f.Close()
			return nil, rec, err
		}
	} else {
		l.firstSeg = segs[0]
		last := len(segs) - 1
		for i, seg := range segs {
			n, valid, clean, err := scanSegment(l.fs, l.segPath(seg), l.opt.MaxRecordBytes)
			if err != nil {
				return nil, rec, err
			}
			rec.Records += n
			if clean {
				continue
			}
			// Torn frame: cut the segment back to its last complete
			// record and drop every later segment — they are beyond the
			// tear and cannot be trusted to follow it.
			size, _ := fileSize(l.fs, l.segPath(seg))
			if err := l.fs.Truncate(l.segPath(seg), valid); err != nil {
				return nil, rec, fmt.Errorf("wal: truncate torn tail: %w", err)
			}
			rec.TornSegment = seg
			rec.TruncatedBytes = size - valid
			for _, later := range segs[i+1:] {
				if err := l.fs.Remove(l.segPath(later)); err != nil {
					return nil, rec, fmt.Errorf("wal: drop segment past tear: %w", err)
				}
				rec.DroppedSegments++
			}
			last = i
			break
		}
		l.seg = segs[last]
		if l.off, err = fileSize(l.fs, l.segPath(l.seg)); err != nil {
			return nil, rec, err
		}
		if l.f, err = l.fs.OpenFile(l.segPath(l.seg), os.O_WRONLY, 0o644); err != nil {
			return nil, rec, fmt.Errorf("wal: %w", err)
		}
		if _, err := l.f.Seek(l.off, io.SeekStart); err != nil {
			l.f.Close()
			return nil, rec, fmt.Errorf("wal: %w", err)
		}
		// Make the repair itself durable before accepting appends.
		if err := l.f.Sync(); err != nil {
			l.f.Close()
			return nil, rec, fmt.Errorf("wal: %w", err)
		}
		if err := l.fs.SyncDir(dir); err != nil {
			l.f.Close()
			return nil, rec, err
		}
	}
	l.records = rec.Records
	l.synced = Pos{l.seg, l.off}
	if err := l.loadCursor(&rec); err != nil {
		l.closeCursor()
		l.f.Close()
		return nil, rec, err
	}
	if l.opt.Policy == SyncInterval {
		l.stopSync = make(chan struct{})
		l.syncDone = make(chan struct{})
		go l.syncLoop()
	}
	return l, rec, nil
}

func listSegments(fsys FS, dir string) ([]uint64, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 10, 64)
		if err != nil || n == 0 {
			continue
		}
		segs = append(segs, n)
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	for i := 1; i < len(segs); i++ {
		if segs[i] != segs[i-1]+1 {
			return nil, fmt.Errorf("wal: segment gap: %d follows %d", segs[i], segs[i-1])
		}
	}
	return segs, nil
}

func fileSize(fsys FS, path string) (int64, error) {
	fi, err := fsys.Stat(path)
	if err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	return fi.Size(), nil
}

// scanSegment walks the frames of one segment. It returns how many
// complete records it saw, the byte length of that valid prefix, and
// whether the segment ended exactly on a frame boundary.
func scanSegment(fsys FS, path string, maxRecord int) (records uint64, valid int64, clean bool, err error) {
	f, err := fsys.Open(path)
	if err != nil {
		return 0, 0, false, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	fr := NewFrameReader(bufio.NewReader(f), maxRecord)
	for {
		if _, err := fr.Next(); err != nil {
			// A clean EOF at a frame boundary is the normal end; anything
			// else is a torn append.
			return records, fr.Off, err == io.EOF, nil
		}
		records++
	}
}

// ErrTorn reports a frame cut short or failing its length or CRC check:
// the tail a crash mid-append leaves, or corruption anywhere else.
var ErrTorn = errors.New("wal: torn or corrupt frame")

// AppendFrame appends payload to dst as one frame.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

// FrameReader reads frames one at a time. It takes no byte past the frames
// it returns, so a stream may carry other data after them, and it only
// reads: repairing a torn tail is Open's job alone.
type FrameReader struct {
	r         io.Reader
	maxRecord int
	hdr       [headerSize]byte
	// Off counts the bytes of the complete frames read so far.
	Off int64
}

// NewFrameReader reads frames of at most maxRecord payload bytes from r
// (MaxRecordBytes when maxRecord is not positive).
func NewFrameReader(r io.Reader, maxRecord int) *FrameReader {
	if maxRecord <= 0 {
		maxRecord = MaxRecordBytes
	}
	return &FrameReader{r: r, maxRecord: maxRecord}
}

// Next returns the next frame's payload in a fresh slice: io.EOF at a
// clean frame boundary, an error wrapping ErrTorn for a frame cut short or
// failing its length or CRC check, and any other read error as it came.
func (fr *FrameReader) Next() ([]byte, error) {
	var payload []byte
	_, err := io.ReadFull(fr.r, fr.hdr[:])
	if err == nil {
		length := binary.LittleEndian.Uint32(fr.hdr[0:4])
		if length == 0 || int64(length) > int64(fr.maxRecord) {
			return nil, fmt.Errorf("%w at %d: bad length %d", ErrTorn, fr.Off, length)
		}
		payload = make([]byte, length)
		if _, err = io.ReadFull(fr.r, payload); err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
	}
	switch {
	case err == io.ErrUnexpectedEOF:
		return nil, fmt.Errorf("%w at %d: cut short", ErrTorn, fr.Off)
	case err != nil:
		return nil, err
	case crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(fr.hdr[4:8]):
		return nil, fmt.Errorf("%w at %d: CRC mismatch", ErrTorn, fr.Off)
	}
	fr.Off += headerSize + int64(len(payload))
	return payload, nil
}

// ReadDir reads the log in dir from pos (the zero Pos: its oldest
// segment) to its end, calling fn with each payload and the position after
// it, and returns the position after the last record read. Unlike Open it
// repairs nothing — no truncation, no unlink — so it is safe on a live
// daemon's directory and on one under audit. A torn frame at the end of
// the last segment ends the read quietly, where recovery would cut the
// log; anywhere else it is an error.
func ReadDir(dir string, pos Pos, fn func(payload []byte, next Pos) error) (Pos, error) {
	fsys := OSFS{}
	segs, err := listSegments(fsys, dir)
	if err != nil || len(segs) == 0 {
		return pos, err
	}
	if pos.IsZero() {
		pos = Pos{segs[0], 0}
	}
	if pos.Seg < segs[0] {
		return pos, ErrCompacted
	}
	for i, seg := range segs {
		if seg < pos.Seg {
			continue
		}
		if seg > pos.Seg {
			pos = Pos{seg, 0}
		}
		if err := readSegment(fsys, filepath.Join(dir, segName(seg)), &pos, i == len(segs)-1, fn); err != nil {
			return pos, err
		}
	}
	return pos, nil
}

// readSegment is ReadDir over one segment, from pos on.
func readSegment(fsys FS, path string, pos *Pos, last bool, fn func([]byte, Pos) error) error {
	f, err := fsys.Open(path)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	if _, err := f.Seek(pos.Off, io.SeekStart); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	start := pos.Off
	fr := NewFrameReader(bufio.NewReaderSize(f, readBufferBytes), 0)
	for {
		p, err := fr.Next()
		switch {
		case err == io.EOF, errors.Is(err, ErrTorn) && last:
			return nil
		case err != nil:
			return fmt.Errorf("wal: %s: %w", filepath.Base(path), err)
		}
		pos.Off = start + fr.Off
		if err := fn(p, *pos); err != nil {
			return err
		}
	}
}

// Batch is a group of records framed back to back, for one AppendBatch:
// a locked section that logs several records hands the log one write. The
// zero Batch is empty; Reset empties one and keeps its buffers.
type Batch struct {
	buf  []byte // the frames
	ends []int  // where each frame ends in buf
}

// Add frames payload onto the batch.
func (b *Batch) Add(payload []byte) {
	b.buf = AppendFrame(b.buf, payload)
	b.ends = append(b.ends, len(b.buf))
}

// Len reports how many records the batch holds.
func (b *Batch) Len() int { return len(b.ends) }

// Reset empties the batch.
func (b *Batch) Reset() { b.buf, b.ends = b.buf[:0], b.ends[:0] }

// Append frames payload into the log and returns the end position after
// the record — everything strictly before the returned Pos is complete.
// Under SyncAlways the record is durable when Append returns.
func (l *Log) Append(payload []byte) (Pos, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.one.Reset()
	l.one.Add(payload)
	return l.appendLocked(&l.one)
}

// AppendBatch appends b's records in order, as many Appends would, and
// returns the end position after the last. The log takes them in one write
// per segment they land in, and under SyncAlways one fsync: they are all
// durable when AppendBatch returns. A record out of bounds refuses the
// whole batch before anything is written.
func (l *Log) AppendBatch(b *Batch) (Pos, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(b)
}

func (l *Log) appendLocked(b *Batch) (Pos, error) {
	if l.closed {
		return Pos{}, ErrClosed
	}
	if l.poisoned != nil {
		return Pos{}, l.poisoned
	}
	if len(b.ends) == 0 {
		return Pos{l.seg, l.off}, nil
	}
	prev := 0
	for _, end := range b.ends {
		if n := end - prev - headerSize; n <= 0 || n > l.opt.MaxRecordBytes {
			return Pos{}, fmt.Errorf("%w: %d bytes (bound %d, empty records forbidden)",
				ErrTooLarge, n, l.opt.MaxRecordBytes)
		}
		prev = end
	}
	// The frames go down in runs. A run ends at the record an Append of its
	// own would rotate before, so the segment files come out byte for byte
	// as one Append per record leaves them.
	run, prev := 0, 0 // first byte of the run; end of the frame before
	for _, end := range b.ends {
		if at := l.off + int64(prev-run); at > 0 && at+int64(end-prev) > l.opt.SegmentBytes {
			if err := l.writeLocked(b.buf[run:prev]); err != nil {
				return Pos{}, err
			}
			if err := l.rotateLocked(); err != nil {
				return Pos{}, err
			}
			run = prev
		}
		prev = end
	}
	if err := l.writeLocked(b.buf[run:]); err != nil {
		return Pos{}, err
	}
	l.records += uint64(len(b.ends))
	if l.opt.Policy == SyncAlways {
		if err := l.f.Sync(); err != nil {
			return Pos{}, l.poisonLocked(fmt.Errorf("wal: fsync: %w", err))
		}
		l.synced = Pos{l.seg, l.off}
	}
	// Wake the readers parked in Wait (replication streams, the JSON long
	// poll), if any are.
	l.waiters.wake()
	return Pos{l.seg, l.off}, nil
}

// writeLocked writes whole frames at the append offset.
func (l *Log) writeLocked(frames []byte) error {
	if len(frames) == 0 {
		return nil
	}
	if _, err := l.f.Write(frames); err != nil {
		// A short or failed write leaves the file offset somewhere inside
		// a half-written frame; a further append would interleave garbage
		// into the framing. Fail-stop.
		return l.poisonLocked(fmt.Errorf("wal: append: %w", err))
	}
	l.off += int64(len(frames))
	return nil
}

// poisonLocked records the first fatal I/O error and fail-stops the
// append path: every later Append or Sync returns the same ErrPoisoned
// until the process restarts and Open re-recovers from the real disk
// state. See ErrPoisoned for why retrying in place would be unsound.
func (l *Log) poisonLocked(cause error) error {
	if l.poisoned == nil {
		l.poisoned = fmt.Errorf("%w: %w", ErrPoisoned, cause)
	}
	return l.poisoned
}

// Poisoned reports the sticky fail-stop cause, nil while healthy.
func (l *Log) Poisoned() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.poisoned
}

// rotateLocked finishes the current segment (always fsynced, whatever the
// policy — a finished segment must never lose a tail) and opens the next.
func (l *Log) rotateLocked() error {
	if err := l.f.Sync(); err != nil {
		return l.poisonLocked(fmt.Errorf("wal: fsync before rotate: %w", err))
	}
	if err := l.f.Close(); err != nil {
		return l.poisonLocked(fmt.Errorf("wal: rotate: %w", err))
	}
	l.synced = Pos{l.seg, l.off}
	next, err := l.fs.OpenFile(l.segPath(l.seg+1), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return l.poisonLocked(fmt.Errorf("wal: rotate: %w", err))
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		next.Close()
		return l.poisonLocked(err)
	}
	l.f, l.seg, l.off = next, l.seg+1, 0
	l.synced = Pos{l.seg, 0}
	return nil
}

// Sync forces everything appended so far to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

// Rotate finishes the active segment, empty or not, and starts the next;
// it returns the new segment's first position, before which everything can
// then be compacted away.
func (l *Log) Rotate() (Pos, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return Pos{}, ErrClosed
	}
	if l.poisoned != nil {
		return Pos{}, l.poisoned
	}
	if err := l.rotateLocked(); err != nil {
		return Pos{}, err
	}
	return Pos{l.seg, 0}, nil
}

func (l *Log) syncLocked() error {
	if l.closed {
		return ErrClosed
	}
	if l.poisoned != nil {
		return l.poisoned
	}
	if l.synced == (Pos{l.seg, l.off}) {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return l.poisonLocked(fmt.Errorf("wal: fsync: %w", err))
	}
	l.synced = Pos{l.seg, l.off}
	return nil
}

func (l *Log) syncLoop() {
	defer close(l.syncDone)
	t := time.NewTicker(l.opt.Interval)
	defer t.Stop()
	for {
		select {
		case <-l.stopSync:
			return
		case <-t.C:
			l.mu.Lock()
			if !l.closed {
				_ = l.syncLocked()
			}
			l.mu.Unlock()
		}
	}
}

// End reports the append frontier; Synced how far durability reaches;
// Records how many complete records the log holds; Dir where it lives.
func (l *Log) End() Pos {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Pos{l.seg, l.off}
}

func (l *Log) Synced() Pos {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.synced
}

func (l *Log) Records() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.records
}

func (l *Log) Dir() string { return l.dir }

// Closed reports whether Close has run: a reader parked in Wait on a closed
// log returns at once, so a loop around it must stop.
func (l *Log) Closed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed
}

// Close syncs and closes the log. Further appends fail with ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	err := l.syncLocked()
	l.closed = true
	if cerr := l.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("wal: %w", cerr)
	}
	stop := l.stopSync
	done := l.syncDone
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	l.closeCursor()
	return err
}

// Wait blocks until the append frontier moves past pos, the timeout
// lapses, or done is closed; it reports whether records past pos exist.
// Replication waits here: the JSON long poll, and a stream through its
// Reader's Wait.
func (l *Log) Wait(done <-chan struct{}, pos Pos, timeout time.Duration) bool {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	return l.wait(done, pos, deadline.C, new(Wake))
}

// wait is Wait until deadline ticks, parking wk.
func (l *Log) wait(done <-chan struct{}, pos Pos, deadline <-chan time.Time, wk *Wake) bool {
	for {
		l.mu.Lock()
		end := Pos{l.seg, l.off}
		if pos.Less(end) || l.closed {
			l.mu.Unlock()
			return pos.Less(end)
		}
		ch := wk.park()
		l.waiters.add(ch)
		l.mu.Unlock()
		select {
		case <-ch:
			continue
		case <-deadline:
		case <-done:
		}
		l.mu.Lock()
		l.waiters.drop(ch)
		l.mu.Unlock()
		return false
	}
}

// CompactBefore unlinks every segment wholly before pos — typically the
// WAL position a just-written snapshot recorded, since the snapshot now
// carries everything those segments said. The segment containing pos and
// the active segment always survive. Returns how many were removed.
func (l *Log) CompactBefore(pos Pos) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	removed := 0
	for seg := l.firstSeg; seg < pos.Seg && seg < l.seg; seg++ {
		if err := l.fs.Remove(l.segPath(seg)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return removed, fmt.Errorf("wal: compact: %w", err)
		}
		l.firstSeg = seg + 1
		removed++
	}
	if removed > 0 {
		if err := l.fs.SyncDir(l.dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// SizeBetween reports the committed bytes between two positions — the
// exact replication lag a shipped batch leaves behind. Positions outside
// the log clamp to it; a backwards or compacted range reports 0.
func (l *Log) SizeBetween(from, to Pos) (int64, error) {
	l.mu.Lock()
	end := Pos{l.seg, l.off}
	first := l.firstSeg
	l.mu.Unlock()
	if from.IsZero() {
		from = Pos{first, 0}
	}
	if to.IsZero() || end.Less(to) {
		to = end
	}
	if to.Less(from) || from.Seg < first {
		return 0, nil
	}
	var total int64
	for seg := from.Seg; seg <= to.Seg; seg++ {
		limit := to.Off
		if seg != to.Seg {
			size, err := fileSize(l.fs, l.segPath(seg))
			if err != nil {
				return 0, err
			}
			limit = size
		}
		lo := int64(0)
		if seg == from.Seg {
			lo = from.Off
		}
		if limit > lo {
			total += limit - lo
		}
	}
	return total, nil
}

// FirstPos reports the oldest position still readable.
func (l *Log) FirstPos() Pos {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Pos{l.firstSeg, 0}
}

// Meta files: tiny durable key facts living beside the segments — the
// fencing epoch and the promotion vote. Written with the full tmp → fsync
// → rename → fsync(dir) dance so a crash leaves either the old value or
// the new one, never a torn file, and read and written through the log's
// filesystem seam. (The replication cursor changes once per shipped batch
// and cannot afford that; see cursor.go.)

// WriteFile writes data to path through fsys durably: temp file, fsync,
// rename, directory fsync, so a crash at any instant leaves either the old
// file or the new one — complete and durable — never a torn or vanishing
// one. On failure the temp file is removed and the old file is untouched.
func WriteFile(fsys FS, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		fsys.Remove(tmp)
		return fmt.Errorf("wal: write %s: %w", filepath.Base(path), err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	// The rename is only durable once the directory entry is.
	return fsys.SyncDir(filepath.Dir(path))
}

// readMeta returns the named meta file's content; nil when none was saved.
func (l *Log) readMeta(name string) ([]byte, error) {
	blob, err := l.fs.ReadFile(filepath.Join(l.dir, name))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	return blob, nil
}

// SaveEpoch durably records the fencing epoch in the log's directory.
func (l *Log) SaveEpoch(epoch uint64) error {
	return WriteFile(l.fs, filepath.Join(l.dir, "epoch"), []byte(strconv.FormatUint(epoch, 10)))
}

// LoadEpoch reads the saved fencing epoch; 0 when none was saved.
func (l *Log) LoadEpoch() (uint64, error) {
	blob, err := l.readMeta("epoch")
	if blob == nil {
		return 0, err
	}
	n, err := strconv.ParseUint(strings.TrimSpace(string(blob)), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("wal: epoch file: %w", err)
	}
	return n, nil
}

// Vote is the durable record of a promotion vote: which candidate this
// node endorsed for which epoch. Persisted before the grant is sent so a
// crash-restarted node cannot endorse two candidates for the same epoch.
type Vote struct {
	Epoch     uint64 `json:"epoch"`
	Candidate string `json:"candidate"`
}

// SaveVote durably records a promotion vote in the log's directory.
func (l *Log) SaveVote(v Vote) error {
	blob, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return WriteFile(l.fs, filepath.Join(l.dir, "vote"), blob)
}

// LoadVote reads the last saved promotion vote; the zero Vote when none
// was saved.
func (l *Log) LoadVote() (Vote, error) {
	var v Vote
	blob, err := l.readMeta("vote")
	if blob == nil {
		return v, err
	}
	if err := json.Unmarshal(blob, &v); err != nil {
		return Vote{}, fmt.Errorf("wal: vote file: %w", err)
	}
	return v, nil
}
