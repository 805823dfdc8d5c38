package wal_test

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"transedge/internal/wal"
)

// TestGoldenFrame pins the on-disk record frame as literal hex: u32 payload
// length, u32 IEEE CRC-32 of (id, payload), u64 record ID, then the
// payload. A segment file is nothing but frames back to back.
func TestGoldenFrame(t *testing.T) {
	const golden = "0000000e4504214e0000000000000029676f6c64656e2d7061796c6f6164"
	dir := t.TempDir()
	w, err := wal.Open(wal.Options{Dir: dir, SyncEvery: wal.SyncNever}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(41, []byte("golden-payload")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v (%v), want exactly one", segs, err)
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(raw); got != golden {
		t.Fatalf("frame\n got  %s\n want %s", got, golden)
	}
}
