package wal_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"transedge/internal/wal"
)

// collect reopens the log at dir and returns the replayed records.
func collect(t *testing.T, dir string) (map[int64][]byte, *wal.Log) {
	t.Helper()
	got := make(map[int64][]byte)
	w, err := wal.Open(wal.Options{Dir: dir}, func(id int64, payload []byte) bool {
		got[id] = append([]byte(nil), payload...)
		return true
	})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	return got, w
}

func appendN(t *testing.T, w *wal.Log, start, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		id := int64(start + i)
		if err := w.Append(id, []byte(fmt.Sprintf("payload-%d", id))); err != nil {
			t.Fatalf("append %d: %v", id, err)
		}
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(wal.Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 1, 20)
	if w.LastID() != 20 {
		t.Fatalf("LastID = %d, want 20", w.LastID())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	got, w2 := collect(t, dir)
	defer w2.Close()
	if len(got) != 20 {
		t.Fatalf("replayed %d records, want 20", len(got))
	}
	for id := int64(1); id <= 20; id++ {
		if want := fmt.Sprintf("payload-%d", id); string(got[id]) != want {
			t.Fatalf("record %d = %q, want %q", id, got[id], want)
		}
	}
	// The reopened log appends where the old one left off.
	if err := w2.Append(21, []byte("next")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Append(21, []byte("dup")); err == nil {
		t.Fatal("non-monotonic append accepted")
	}
}

func TestGroupCommitSyncPolicy(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(wal.Options{Dir: dir, SyncEvery: 4, SyncInterval: time.Hour}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendN(t, w, 1, 3)
	if w.SyncCount() != 0 {
		t.Fatalf("synced %d times before the group filled", w.SyncCount())
	}
	// MaybeSync must not flush a young partial group.
	if err := w.MaybeSync(); err != nil {
		t.Fatal(err)
	}
	if w.SyncCount() != 0 {
		t.Fatal("MaybeSync flushed before SyncInterval elapsed")
	}
	appendN(t, w, 4, 1) // fills the group of 4
	if w.SyncCount() != 1 {
		t.Fatalf("SyncCount = %d after a full group, want 1", w.SyncCount())
	}
}

func TestMaybeSyncFlushesAgedGroup(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(wal.Options{Dir: dir, SyncEvery: 100, SyncInterval: time.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendN(t, w, 1, 2)
	time.Sleep(3 * time.Millisecond)
	if err := w.MaybeSync(); err != nil {
		t.Fatal(err)
	}
	if w.SyncCount() != 1 {
		t.Fatalf("SyncCount = %d after the group aged out, want 1", w.SyncCount())
	}
}

func TestSyncNeverIssuesNoFsync(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(wal.Options{Dir: dir, SyncEvery: wal.SyncNever}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 1, 50)
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.MaybeSync(); err != nil {
		t.Fatal(err)
	}
	if w.SyncCount() != 0 {
		t.Fatalf("SyncCount = %d under SyncNever, want 0", w.SyncCount())
	}
	w.Close()
	// The records still replay: page-cache writes survive a graceful close.
	got, w2 := collect(t, dir)
	defer w2.Close()
	if len(got) != 50 {
		t.Fatalf("replayed %d records, want 50", len(got))
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(wal.Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 1, 5)
	w.Close()

	// Tear the last record: chop bytes off the single segment file.
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	info, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], info.Size()-7); err != nil {
		t.Fatal(err)
	}

	got, w2 := collect(t, dir)
	if len(got) != 4 {
		t.Fatalf("replayed %d records after a torn tail, want 4", len(got))
	}
	// The truncated log accepts new appends above the surviving prefix.
	if err := w2.Append(5, []byte("rewritten")); err != nil {
		t.Fatalf("append after truncation: %v", err)
	}
	w2.Close()
	got, w3 := collect(t, dir)
	defer w3.Close()
	if string(got[5]) != "rewritten" {
		t.Fatalf("record 5 = %q after rewrite, want %q", got[5], "rewritten")
	}
}

func TestBitFlipTruncatesFromDamage(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(wal.Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 1, 6)
	w.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40 // flip one bit mid-log
	if err := os.WriteFile(segs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	got, w2 := collect(t, dir)
	defer w2.Close()
	if len(got) >= 6 {
		t.Fatalf("replayed %d records despite a bit flip", len(got))
	}
	// Whatever survived is a strict prefix: IDs 1..len with intact bodies.
	for id := int64(1); id <= int64(len(got)); id++ {
		if want := fmt.Sprintf("payload-%d", id); string(got[id]) != want {
			t.Fatalf("record %d = %q, want %q", id, got[id], want)
		}
	}
}

func TestRejectedRecordTruncates(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(wal.Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 1, 5)
	w.Close()

	// The callback rejecting record 4 truncates it and record 5.
	var ids []int64
	w2, err := wal.Open(wal.Options{Dir: dir}, func(id int64, _ []byte) bool {
		if id == 4 {
			return false
		}
		ids = append(ids, id)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	w2.Close()

	got, w3 := collect(t, dir)
	defer w3.Close()
	if len(got) != 3 {
		t.Fatalf("%d records survived a rejection at 4, want 3", len(got))
	}
}

func TestSegmentRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every record rotates.
	w, err := wal.Open(wal.Options{Dir: dir, SegmentBytes: 32}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 1, 10)
	if w.Segments() < 5 {
		t.Fatalf("Segments = %d with 32-byte segments and 10 records", w.Segments())
	}

	// Checkpoint at 7: records below it are redundant. Only whole
	// segments go; everything >= 7 must survive.
	if err := w.Truncate(7); err != nil {
		t.Fatal(err)
	}
	w.Close()

	got, w2 := collect(t, dir)
	if len(got) == 0 {
		t.Fatal("truncation removed the live suffix")
	}
	for id := int64(7); id <= 10; id++ {
		if want := fmt.Sprintf("payload-%d", id); string(got[id]) != want {
			t.Fatalf("record %d = %q after Truncate(7), want %q", id, got[id], want)
		}
	}
	for id := range got {
		if id < 6 { // id 6 may share a segment with 7; earlier ones must be gone
			t.Fatalf("record %d survived Truncate(7) in a fully-dead segment", id)
		}
	}
	// Appends continue above the old tip after reopen.
	if err := w2.Append(11, []byte("payload-11")); err != nil {
		t.Fatal(err)
	}
	w2.Close()
}

// TestRotationSyncsClosedSegment: frames still pending when the active
// segment rotates are fsynced before it closes. Nothing syncs a closed
// segment later, and a torn one would take every later segment with it on
// Open. Under SyncNever rotation issues no fsync either.
func TestRotationSyncsClosedSegment(t *testing.T) {
	for _, tc := range []struct {
		syncEvery int
		wantSyncs int64
	}{{100, 1}, {wal.SyncNever, 0}} {
		w, err := wal.Open(wal.Options{Dir: t.TempDir(), SyncEvery: tc.syncEvery, SyncInterval: time.Hour, SegmentBytes: 64}, nil)
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, w, 1, 2) // two 25-byte frames fill the first segment
		if w.Segments() != 1 || w.SyncCount() != 0 {
			t.Fatalf("SyncEvery=%d: %d segments, %d syncs before rotation, want 1 and 0", tc.syncEvery, w.Segments(), w.SyncCount())
		}
		appendN(t, w, 3, 1)
		if w.Segments() != 2 {
			t.Fatalf("SyncEvery=%d: %d segments after the third frame, want 2", tc.syncEvery, w.Segments())
		}
		if w.SyncCount() != tc.wantSyncs {
			t.Fatalf("SyncEvery=%d: SyncCount = %d after rotating past 2 pending frames, want %d", tc.syncEvery, w.SyncCount(), tc.wantSyncs)
		}
		w.Close()
	}
}

func TestTruncateEverythingRotatesActive(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(wal.Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 1, 5)
	// Everything below 100: the active segment itself is fully redundant
	// and must rotate away rather than keep dead records.
	if err := w.Truncate(100); err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 100, 1)
	w.Close()

	got, w2 := collect(t, dir)
	defer w2.Close()
	if len(got) != 1 || string(got[100]) != "payload-100" {
		t.Fatalf("got %v records after full truncation, want only record 100", len(got))
	}
}

func TestCrashAfterTearsFrameAndRecoversPrefix(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(wal.Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 1, 3)
	w.Sync()
	w.CrashAfter(10) // the next frame dies 10 bytes in
	if err := w.Append(4, bytes.Repeat([]byte("x"), 100)); err == nil {
		t.Fatal("append survived an injected torn write")
	}
	if !w.Crashed() {
		t.Fatal("log not marked crashed")
	}
	// Every later operation fails.
	if err := w.Append(5, []byte("y")); err == nil {
		t.Fatal("append accepted on a crashed log")
	}
	if err := w.Sync(); err == nil {
		t.Fatal("sync accepted on a crashed log")
	}
	w.Close()

	got, w2 := collect(t, dir)
	defer w2.Close()
	if len(got) != 3 {
		t.Fatalf("replayed %d records after a torn-frame crash, want 3", len(got))
	}
}

func TestCrashBeforeSyncLosesUnsyncedTail(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(wal.Options{Dir: dir, SyncEvery: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 1, 4) // full group: synced
	appendN(t, w, 5, 2) // partial group: page cache only
	w.CrashBeforeSync()
	if err := w.Sync(); err == nil {
		t.Fatal("sync survived the injected pre-flush crash")
	}
	w.Close()

	// The power cut loses exactly the unsynced tail: 1–4 survive, 5–6 die.
	got, w2 := collect(t, dir)
	defer w2.Close()
	if len(got) != 4 {
		t.Fatalf("%d records survived a pre-sync crash, want the 4 synced ones", len(got))
	}
	if _, exists := got[5]; exists {
		t.Fatal("unsynced record 5 survived a pre-sync power cut")
	}
}

func TestCrashAfterSyncKeepsEverything(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(wal.Options{Dir: dir, SyncEvery: 100}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 1, 6)
	w.CrashAfterSync()
	if err := w.Sync(); err == nil {
		t.Fatal("sync survived the injected post-flush crash")
	}
	w.Close()

	got, w2 := collect(t, dir)
	defer w2.Close()
	if len(got) != 6 {
		t.Fatalf("%d records survived a post-sync crash, want all 6", len(got))
	}
}

func TestOpenOnGarbageFileRecoversCleanly(t *testing.T) {
	dir := t.TempDir()
	// A segment-named file full of noise: Open must not error and must
	// leave a usable (empty) log.
	if err := os.WriteFile(filepath.Join(dir, "0000000000000001.wal"),
		bytes.Repeat([]byte{0xde, 0xad}, 300), 0o644); err != nil {
		t.Fatal(err)
	}
	got, w := collect(t, dir)
	defer w.Close()
	if len(got) != 0 {
		t.Fatalf("replayed %d records from garbage", len(got))
	}
	if err := w.Append(1, []byte("fresh")); err != nil {
		t.Fatalf("append after garbage recovery: %v", err)
	}
}

func TestDamagedMiddleSegmentDropsLaterOnes(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(wal.Options{Dir: dir, SegmentBytes: 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 1, 9)
	if w.Segments() < 3 {
		t.Fatalf("Segments = %d, want >= 3", w.Segments())
	}
	w.Close()

	// Corrupt the second segment: its suffix AND every later segment are
	// untrusted (records apply in order; nothing after the damage chains).
	segs, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err := os.Truncate(segs[1], 4); err != nil {
		t.Fatal(err)
	}

	got, w2 := collect(t, dir)
	defer w2.Close()
	var maxID int64
	for id := range got {
		if id > maxID {
			maxID = id
		}
	}
	if int64(len(got)) != maxID {
		t.Fatalf("surviving records not a prefix: %d records, max ID %d", len(got), maxID)
	}
	remaining, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
	if len(remaining) >= len(segs) {
		t.Fatal("segments after the damage point were not removed")
	}
}
