// Package wal implements the group-commit write-ahead log of the
// durability layer (DESIGN.md §8): certified batches are appended —
// length-prefixed, CRC'd, ID-tagged — before delivery applies them, and
// fsyncs are batched so one disk flush covers a group of commits.
//
// The log is a directory of sequentially numbered segment files. Open
// replays every intact record through a caller-supplied callback and
// truncates the log at the first sign of damage — a torn frame, a CRC
// mismatch, a non-monotonic record ID, or a record the callback rejects —
// exactly the "keep the longest verifiable prefix" rule a crashed append
// requires. Everything after the damage point (including later segments)
// is discarded: records are applied in order, so nothing beyond the first
// bad record can be trusted to chain.
package wal

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// SyncNever disables fsync entirely (the benchmarking mode: the OS page
// cache is the only durability, so a process crash loses nothing but a
// machine crash may lose the tail).
const SyncNever = -1

// DefaultSyncEvery is the group-commit width when Options.SyncEvery is
// unset: one fsync covers up to this many appended batches.
const DefaultSyncEvery = 8

// DefaultSyncInterval bounds how stale a partial group may get before
// MaybeSync flushes it anyway.
const DefaultSyncInterval = 2 * time.Millisecond

// DefaultSegmentBytes is the segment rotation threshold.
const DefaultSegmentBytes = 8 << 20

// maxRecordBytes bounds a single record frame; a length prefix beyond it
// is treated as corruption rather than honored with a giant allocation.
const maxRecordBytes = 64 << 20

// ErrCrashed is returned by every operation after an injected crash (see
// CrashAfter/CrashBeforeSync/CrashAfterSync) or a real write error: the
// log is dead and the caller must degrade or restart.
var ErrCrashed = errors.New("wal: log crashed")

// Options configures a log.
type Options struct {
	// Dir is the log directory (created if absent).
	Dir string
	// SyncEvery is the group-commit width: fsync after this many appends
	// (0 = DefaultSyncEvery, SyncNever = no fsync ever).
	SyncEvery int
	// SyncInterval bounds the staleness of a partial group: MaybeSync
	// flushes once this much time passed since the group's first append
	// (0 = DefaultSyncInterval). Ignored under SyncNever.
	SyncInterval time.Duration
	// SegmentBytes rotates the active segment past this size
	// (0 = DefaultSegmentBytes).
	SegmentBytes int64
}

func (o Options) withDefaults() Options {
	if o.SyncEvery == 0 {
		o.SyncEvery = DefaultSyncEvery
	}
	if o.SyncInterval <= 0 {
		o.SyncInterval = DefaultSyncInterval
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	return o
}

// segment is one closed or active log file and the record-ID range it
// holds (first > last means empty).
type segment struct {
	seq   int64
	first int64
	last  int64
}

func (s segment) empty() bool { return s.first > s.last }

// Log is a group-commit write-ahead log. It is not internally locked:
// the owning replica's event loop is the only appender (crash-injection
// hooks must be armed before the loop runs or between operations).
type Log struct {
	opts Options

	f      *os.File // active segment
	active segment
	closed []segment // earlier segments still on disk
	nextID int64     // next expected record ID (monotonicity check)

	written int64 // bytes in the active segment
	synced  int64 // bytes of the active segment known flushed

	pending      int // appends since the last sync
	firstPending time.Time

	// Crash injection (tests): crashAfter is the remaining byte budget
	// before a torn write (negative = disarmed); the sync hooks fire on
	// the next Sync, before or after the actual flush. Atomic so a test
	// can arm a hook while the owning event loop appends.
	crashAfter      atomic.Int64
	crashBeforeSync atomic.Bool
	crashAfterSync  atomic.Bool
	crashed         atomic.Bool

	// syncs counts fsync calls issued, for tests and metrics.
	syncs atomic.Int64
}

func segName(seq int64) string { return fmt.Sprintf("%016d.wal", seq) }

func (l *Log) segPath(s segment) string {
	return filepath.Join(l.opts.Dir, segName(s.seq))
}

// Open opens (or creates) the log in opts.Dir and replays every intact
// record, in order, through replay. The payload slice passed to replay is
// only valid during the call. A replay returning false rejects the record
// — it and everything after it are truncated from disk, the same
// treatment a torn or corrupt record gets. Open never returns an error
// for corruption (that is the expected after-crash state); only real I/O
// or filesystem failures surface.
func Open(opts Options, replay func(id int64, payload []byte) bool) (*Log, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	names, err := listSegments(opts.Dir)
	if err != nil {
		return nil, err
	}
	l := &Log{opts: opts, nextID: -1 << 62}
	l.crashAfter.Store(-1)

	damaged := false
	var maxSeq int64
	for i, seq := range names {
		if seq > maxSeq {
			maxSeq = seq
		}
		path := filepath.Join(opts.Dir, segName(seq))
		if damaged {
			// Everything after the damage point is untrusted; remove it.
			if err := os.Remove(path); err != nil {
				return nil, err
			}
			continue
		}
		seg := segment{seq: seq, first: 1, last: 0}
		keep, size, err := l.scanSegment(path, &seg, replay)
		if err != nil {
			return nil, err
		}
		if !keep {
			damaged = true
			if size == 0 && seg.empty() {
				// Nothing salvageable in this file at all.
				if err := os.Remove(path); err != nil {
					return nil, err
				}
				continue
			}
			if err := truncateFile(path, size); err != nil {
				return nil, err
			}
		}
		if i == len(names)-1 || damaged {
			// Reopen the survivor as the active segment.
			f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
			if err != nil {
				return nil, err
			}
			if _, err := f.Seek(size, io.SeekStart); err != nil {
				f.Close()
				return nil, err
			}
			l.f, l.active, l.written, l.synced = f, seg, size, size
		} else {
			l.closed = append(l.closed, seg)
		}
	}
	if l.f == nil {
		if err := l.newSegment(maxSeq + 1); err != nil {
			return nil, err
		}
	}
	return l, nil
}

func listSegments(dir string) ([]int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []int64
	for _, e := range ents {
		var seq int64
		if _, err := fmt.Sscanf(e.Name(), "%016d.wal", &seq); err == nil {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// scanSegment replays one file. It returns keep=false when the file holds
// damage (or a rejected record) at offset size — the caller truncates
// there and discards later segments.
func (l *Log) scanSegment(path string, seg *segment, replay func(int64, []byte) bool) (keep bool, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return false, 0, err
	}
	defer f.Close()

	var off int64
	hdr := make([]byte, 16)
	var body []byte
	for {
		if _, err := io.ReadFull(f, hdr); err != nil {
			if err == io.EOF {
				return true, off, nil // clean end
			}
			return false, off, nil // torn header
		}
		length := be32(hdr[0:4])
		crc := be32(hdr[4:8])
		id := int64(be64(hdr[8:16]))
		if length > maxRecordBytes {
			return false, off, nil
		}
		if int64(len(body)) < int64(length) {
			body = make([]byte, length)
		}
		payload := body[:length]
		if _, err := io.ReadFull(f, payload); err != nil {
			return false, off, nil // torn body
		}
		if crc32.ChecksumIEEE(append(hdr[8:16:16], payload...)) != crc {
			return false, off, nil
		}
		if id <= l.nextID {
			return false, off, nil // IDs must be strictly increasing
		}
		if replay != nil && !replay(id, payload) {
			return false, off, nil
		}
		l.nextID = id
		if seg.empty() {
			seg.first = id
		}
		seg.last = id
		off += 16 + int64(length)
	}
}

func truncateFile(path string, size int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Truncate(size)
}

func (l *Log) newSegment(seq int64) error {
	f, err := os.OpenFile(filepath.Join(l.opts.Dir, segName(seq)),
		os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	l.f = f
	l.active = segment{seq: seq, first: 1, last: 0}
	l.written, l.synced = 0, 0
	return nil
}

// rotate closes the active segment and starts the next one. It fsyncs the
// outgoing file first when frames are pending (unless fsync is disabled):
// a closed file is never written or synced again, and a power cut that
// tore it would make Open truncate there and delete every later segment,
// synced records included.
func (l *Log) rotate() error {
	if l.pending > 0 && l.opts.SyncEvery != SyncNever {
		if err := l.f.Sync(); err != nil {
			return err
		}
		l.syncs.Add(1)
		l.pending = 0
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	l.closed = append(l.closed, l.active)
	return l.newSegment(l.active.seq + 1)
}

// Append writes one record. Durability follows the group-commit policy:
// the record is on disk in the page cache immediately, fsynced once the
// group fills (SyncEvery) or ages out (SyncInterval, via MaybeSync).
func (l *Log) Append(id int64, payload []byte) error {
	if l.crashed.Load() {
		return ErrCrashed
	}
	if id <= l.nextID {
		return fmt.Errorf("wal: append %d not above last record %d", id, l.nextID)
	}
	frame := make([]byte, 16+len(payload))
	be32put(frame[0:4], uint32(len(payload)))
	be64put(frame[8:16], uint64(id))
	copy(frame[16:], payload)
	be32put(frame[4:8], crc32.ChecksumIEEE(frame[8:]))

	if l.written > 0 && l.written+int64(len(frame)) > l.opts.SegmentBytes {
		if err := l.rotate(); err != nil {
			l.crashed.Store(true)
			return err
		}
	}
	if ca := l.crashAfter.Load(); ca >= 0 {
		if int64(len(frame)) > ca {
			// Injected torn write: part of the frame lands, then the
			// "process" dies. Every later operation fails.
			l.f.Write(frame[:ca])
			l.f.Sync()
			l.crashed.Store(true)
			return ErrCrashed
		}
		l.crashAfter.Store(ca - int64(len(frame)))
	}
	if _, err := l.f.Write(frame); err != nil {
		l.crashed.Store(true)
		return err
	}
	l.written += int64(len(frame))
	l.nextID = id
	if l.active.empty() {
		l.active.first = id
	}
	l.active.last = id
	if l.pending == 0 {
		l.firstPending = time.Now()
	}
	l.pending++
	if l.opts.SyncEvery > 0 && l.pending >= l.opts.SyncEvery {
		return l.Sync()
	}
	return nil
}

// Sync flushes the pending group to stable storage (no-op when nothing is
// pending or fsync is disabled).
func (l *Log) Sync() error {
	if l.crashed.Load() {
		return ErrCrashed
	}
	if l.crashBeforeSync.Load() {
		// Injected crash before the flush: the unsynced tail is exactly
		// what a power cut would lose — drop it from disk so a restart
		// observes the loss.
		l.f.Truncate(l.synced)
		l.crashed.Store(true)
		return ErrCrashed
	}
	if l.pending == 0 || l.opts.SyncEvery == SyncNever {
		l.pending = 0
		return nil
	}
	if err := l.f.Sync(); err != nil {
		l.crashed.Store(true)
		return err
	}
	l.syncs.Add(1)
	l.synced = l.written
	l.pending = 0
	if l.crashAfterSync.Load() {
		l.crashed.Store(true)
		return ErrCrashed
	}
	return nil
}

// MaybeSync flushes a partial group whose first append is older than
// SyncInterval; the replica calls it from its periodic tick so a quiet
// stretch cannot leave a tail unsynced forever.
func (l *Log) MaybeSync() error {
	if l.crashed.Load() {
		return ErrCrashed
	}
	if l.pending == 0 || l.opts.SyncEvery == SyncNever {
		return nil
	}
	if time.Since(l.firstPending) < l.opts.SyncInterval {
		return nil
	}
	return l.Sync()
}

// Truncate drops every record with ID < below — called when a stable
// checkpoint at below-1 is persisted, making the prefix redundant. Only
// whole segments are deleted (record-level holes would break the
// monotonic scan); the active segment rotates first if it is entirely
// below the boundary.
func (l *Log) Truncate(below int64) error {
	if l.crashed.Load() {
		return ErrCrashed
	}
	if !l.active.empty() && l.active.last < below {
		if err := l.rotate(); err != nil {
			l.crashed.Store(true)
			return err
		}
	}
	kept := l.closed[:0]
	for _, s := range l.closed {
		if !s.empty() && s.last >= below {
			kept = append(kept, s)
			continue
		}
		if err := os.Remove(l.segPath(s)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	l.closed = append([]segment(nil), kept...)
	return nil
}

// Close flushes and closes the log. A crashed log closes without
// flushing.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	var err error
	if !l.crashed.Load() {
		err = l.Sync()
	}
	if cerr := l.f.Close(); err == nil && cerr != nil {
		err = cerr
	}
	l.f = nil
	return err
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.opts.Dir }

// Segments returns how many segment files the log currently spans.
func (l *Log) Segments() int { return len(l.closed) + 1 }

// LastID returns the newest record ID (or a very negative sentinel when
// the log never held a record).
func (l *Log) LastID() int64 { return l.nextID }

// Syncs returns how many fsyncs the log has issued.
func (l *Log) SyncCount() int64 { return l.syncs.Load() }

// Crashed reports whether the log is dead (injected crash or I/O error).
// Safe to poll from other goroutines.
func (l *Log) Crashed() bool { return l.crashed.Load() }

// CrashAfter arms an injected torn-write crash: the log dies mid-frame
// once n more bytes (frames included) have been written. Safe to arm
// while the owning loop appends. Tests only.
func (l *Log) CrashAfter(n int64) { l.crashAfter.Store(n) }

// CrashBeforeSync makes the next Sync die before flushing, dropping the
// unsynced tail from disk — the group-commit loss window. Tests only.
func (l *Log) CrashBeforeSync() { l.crashBeforeSync.Store(true) }

// CrashAfterSync makes the next Sync die right after a successful flush:
// everything appended so far survives. Tests only.
func (l *Log) CrashAfterSync() { l.crashAfterSync.Store(true) }

func be32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func be64(b []byte) uint64 {
	var v uint64
	for _, x := range b {
		v = v<<8 | uint64(x)
	}
	return v
}

func be32put(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
}

func be64put(b []byte, v uint64) {
	for i := 7; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
}
